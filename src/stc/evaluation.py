"""Metrics and the full experiment protocol.

Micro-F1 pools confusion counts over every (document, class) pair; macro-F1
averages per-class F1 over all configured classes. ``f1_scores`` takes both
from integer per-class counts of (n x C) gold and predicted label matrices,
through ``mdp.prf1_from_counts``, the formula ``prf1`` uses. Reading size is
the mean fraction of sentences read per test document.

The experiment protocol sweeps training fractions and runs. One cell table
lists each method (baseline, then the reading agent) with its seed stream,
lambda grid and fit: a split job builds its cells from it, all marked with
the error when the split fails to prepare, and ``_aggregate`` picks each
method's lambda from it. A split job builds its test side's gold matrix
once, and ``score`` scores each fitted model against it, as ``stc evaluate``
does for a saved one. One CSV routine writes every report table.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .baseline import BaselineModel, predict_baseline_matrix, train_baseline
from .corpus import CategorySet, Document, RawDocument, Split, TaskMode
from .learn import RolloutConfig, derived_seed, episode_log, policy_iteration
from .mdp import EpisodeLog, prf1_from_counts
from .policy import ClassifierConfig, Greedy

__all__ = [
    "Prediction",
    "micro_f1",
    "macro_f1",
    "f1_scores",
    "label_matrix",
    "reading_size",
    "reading_histogram",
    "evaluate_policy",
    "score",
    "ExperimentPlan",
    "CellResult",
    "AggregateRow",
    "ExperimentReport",
    "run_experiment",
    "write_report_files",
]


@dataclass(frozen=True)
class Prediction:
    doc_id: str
    y: tuple[int, ...]
    y_hat: tuple[int, ...]


def label_matrix(rows, n_categories: int) -> np.ndarray:
    """The (n x C) int8 matrix of n 0/1 label rows, (0 x C) for none."""
    return np.array(rows, dtype=np.int8).reshape(len(rows), n_categories)


def f1_scores(y: np.ndarray, y_hat: np.ndarray) -> tuple[float, float]:
    """Micro- and macro-F1 of (n x C) gold and predicted 0/1 label matrices."""
    if not len(y) or not len(y_hat):
        raise ValueError("no predictions")
    if y.shape != y_hat.shape:
        raise ValueError(f"label matrices differ in shape: {y.shape} vs {y_hat.shape}")
    gold, pred = y == 1, y_hat == 1
    tp = np.count_nonzero(gold & pred, axis=0).tolist()
    n_pred = np.count_nonzero(pred, axis=0).tolist()
    n_gold = np.count_nonzero(gold, axis=0).tolist()
    macro = 0.0  # summed left to right: np.mean would sum pairwise
    for k in range(y.shape[1]):
        macro += prf1_from_counts(tp[k], n_pred[k], n_gold[k])[2]
    return prf1_from_counts(sum(tp), sum(n_pred), sum(n_gold))[2], macro / y.shape[1]


def _prediction_f1(preds: list[Prediction], n_categories: int) -> tuple[float, float]:
    y = label_matrix([p.y for p in preds], n_categories)
    return f1_scores(y, label_matrix([p.y_hat for p in preds], n_categories))


def micro_f1(preds: list[Prediction]) -> float:
    """F1 of the confusion counts pooled over every (document, class) pair."""
    return _prediction_f1(preds, len(preds[0].y) if preds else 0)[0]


def macro_f1(preds: list[Prediction], n_categories: int) -> float:
    """Unweighted mean of per-class F1 over all configured classes."""
    return _prediction_f1(preds, n_categories)[1]


def reading_size(logs: list[EpisodeLog]) -> float:
    if not logs:
        raise ValueError("no episode logs")
    return float(np.mean([log.sentences_read / log.n_sentences for log in logs]))


def reading_histogram(logs: list[EpisodeLog], n_bins: int) -> list[tuple[float, float, int]]:
    """Histogram of per-document read fractions over right-closed bins of (0, 1]."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    counts = [0] * n_bins
    for log in logs:
        ratio = log.sentences_read / log.n_sentences
        bin_index = min(n_bins - 1, max(0, math.ceil(ratio * n_bins) - 1))
        counts[bin_index] += 1
    return [(k / n_bins, (k + 1) / n_bins, counts[k]) for k in range(n_bins)]


def evaluate_policy(
    q_policy: Greedy, docs: list[Document], mode: TaskMode
) -> tuple[list[Prediction], list[EpisodeLog]]:
    """Run greedy episodes over a document set, collecting predictions and
    logs, each read off the episode's live pairs (``learn.episode_log``)."""
    preds: list[Prediction] = []
    logs: list[EpisodeLog] = []
    for doc in docs:
        log = episode_log(doc, q_policy, mode)
        preds.append(Prediction(doc.id, tuple(doc.y.tolist()), log.final_assigned))
        logs.append(log)
    return preds, logs


# ---------------------------------------------------------------------------
# Experiment protocol


@dataclass(frozen=True)
class ExperimentPlan:
    mode: TaskMode
    fractions: tuple[float, ...] = (0.01, 0.05, 0.1, 0.3, 0.5, 0.9)
    n_runs: int = 5
    seed: int = 0
    rollout: RolloutConfig = RolloutConfig()
    stc_lambda_grid: tuple[float, ...] = (1e-3,)
    baseline: ClassifierConfig = ClassifierConfig()
    baseline_lambda_grid: tuple[float, ...] = (1e-5, 1e-4, 1e-3)
    histogram_fraction: float | None = 0.3
    histogram_bins: int = 10
    workers: int = 1

    def __post_init__(self):
        if not self.fractions or not all(0.0 < f < 1.0 for f in self.fractions):
            raise ValueError("fractions must lie strictly between 0 and 1")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.histogram_fraction is not None and self.histogram_fraction not in self.fractions:
            raise ValueError(f"histogram_fraction {self.histogram_fraction} is not one of fractions {self.fractions}")


@dataclass
class CellResult:
    method: str  # "stc" | "baseline"
    fraction: float
    run: int
    lam: float
    micro_f1: float | None = None
    macro_f1: float | None = None
    reading_size: float | None = None
    error: str | None = None


@dataclass
class AggregateRow:
    method: str
    fraction: float
    lam: float  # grid choice with the best mean micro-F1
    n_runs: int
    micro_f1_mean: float
    micro_f1_std: float
    macro_f1_mean: float
    macro_f1_std: float
    reading_size_mean: float | None
    reading_size_std: float | None


@dataclass
class ExperimentReport:
    plan: ExperimentPlan
    cells: list[CellResult]
    aggregates: list[AggregateRow]
    histogram: list[tuple[float, float, int]] | None
    complete: bool


# What every split job of the running experiment shares: the corpus, its
# categories and the plan. run_experiment sets it before the worker pool
# forks, so workers inherit it instead of unpickling it with each job.
_job_context: tuple[list[RawDocument], CategorySet, ExperimentPlan] | None = None


def _fit_baseline(train_docs: list[Document], plan: ExperimentPlan, lam: float, seed: int) -> BaselineModel:
    return train_baseline(train_docs, replace(plan.baseline, lam=lam, seed=seed), plan.mode)


def _fit_policy(train_docs: list[Document], plan: ExperimentPlan, lam: float, seed: int) -> Greedy:
    classifier = replace(plan.rollout.classifier, lam=lam)
    result = policy_iteration(train_docs, plan.mode, replace(plan.rollout, classifier=classifier, seed=seed))
    return Greedy(result.q)


def _cell_table(plan: ExperimentPlan):
    """(method, seed stream, lambda grid, fit) of each method, in report
    order; a cell's seed stream and lambda index key its derived seed."""
    return (
        ("baseline", 1, plan.baseline_lambda_grid, _fit_baseline),
        ("stc", 2, plan.stc_lambda_grid, _fit_policy),
    )


def score(
    model: Greedy | BaselineModel, docs: list[Document], mode: TaskMode, gold: np.ndarray
) -> tuple[dict[str, float], list[EpisodeLog]]:
    """Micro- and macro-F1 of a fitted model's hard assignments on ``docs``
    against their gold matrix; for a reading agent also its reading size,
    with the greedy episode logs it was read off (none for the baseline)."""
    if isinstance(model, BaselineModel):
        micro, macro = f1_scores(gold, predict_baseline_matrix(model, docs))
        return {"micro_f1": micro, "macro_f1": macro}, []
    _, logs = evaluate_policy(model, docs, mode)
    micro, macro = f1_scores(gold, label_matrix([log.final_assigned for log in logs], gold.shape[1]))
    return {"micro_f1": micro, "macro_f1": macro, "reading_size": reading_size(logs)}, logs


def _run_split_job(job: tuple[Split, int]) -> tuple[list[CellResult], dict[float, list[EpisodeLog]]]:
    """All method/lambda cells for one (fraction, run) split.

    Returns the cells plus, when the split's fraction is the histogram
    fraction, the reading agent's test-side episode logs per lambda. When
    the split fails to prepare, every cell carries that error.
    """
    raw_docs, categories, plan = _job_context
    split, fraction_index = job
    fraction, run = split.train_fraction, split.run_index
    cells: list[CellResult] = []
    logs_by_lambda: dict[float, list[EpisodeLog]] = {}
    failure = None
    try:
        _, train_docs, test_docs = corpus_mod.prepare_split(raw_docs, categories, split, plan.mode)
        gold = label_matrix([d.y for d in test_docs], len(categories))
    except Exception as exc:  # noqa: BLE001 - cell errors are recorded, not raised
        failure = f"split preparation failed: {exc}"
    for method, stream, grid, fit in _cell_table(plan):
        for lam_index, lam in enumerate(grid):
            cell = CellResult(method, fraction, run, lam, error=failure)
            if failure is None:
                try:
                    model = fit(train_docs, plan, lam, derived_seed(plan.seed, stream, fraction_index, run, lam_index))
                    scores, logs = score(model, test_docs, plan.mode, gold)
                    cell = replace(cell, **scores)
                    if logs and fraction == plan.histogram_fraction:
                        logs_by_lambda[lam] = logs
                except Exception as exc:  # noqa: BLE001
                    cell.error = str(exc)
            cells.append(cell)
    return cells, logs_by_lambda


_TIE = 1e-12


def _aggregate(plan: ExperimentPlan, cells: list[CellResult]) -> list[AggregateRow]:
    groups: dict[tuple[str, float, float], list[CellResult]] = {}
    for c in cells:
        if c.error is None:
            groups.setdefault((c.method, c.fraction, c.lam), []).append(c)
    rows: list[AggregateRow] = []
    for method, _, grid, _ in _cell_table(plan):
        for fraction in plan.fractions:
            candidates = []
            for lam in grid:
                group = groups.get((method, fraction, lam))
                if group:
                    candidates.append((float(np.mean([c.micro_f1 for c in group])), lam, group))
            if not candidates:
                continue
            # Best mean micro-F1 wins; ties go to the smaller lambda. Means
            # within _TIE of the best count as tied: an F1 such as 80/200
            # rounds to 0.4000000000000001, which splits cells that tie in
            # exact arithmetic.
            best = max(mean for mean, _, _ in candidates)
            _, lam, group = min((c for c in candidates if c[0] >= best - _TIE), key=lambda item: item[1])
            micro = [c.micro_f1 for c in group]
            macro = [c.macro_f1 for c in group]
            reading = [c.reading_size for c in group if c.reading_size is not None]
            rows.append(
                AggregateRow(
                    method=method,
                    fraction=fraction,
                    lam=lam,
                    n_runs=len(group),
                    micro_f1_mean=float(np.mean(micro)),
                    micro_f1_std=float(np.std(micro)),
                    macro_f1_mean=float(np.mean(macro)),
                    macro_f1_std=float(np.std(macro)),
                    reading_size_mean=float(np.mean(reading)) if reading else None,
                    reading_size_std=float(np.std(reading)) if reading else None,
                )
            )
    return rows


def run_experiment(raw_docs: list[RawDocument], plan: ExperimentPlan) -> ExperimentReport:
    """Execute the full fraction x run x method grid.

    Jobs are one (fraction, run) split each; results are merged in job
    order, so the report is identical for any worker count. Failed cells
    carry their error message and mark the report incomplete.
    """
    global _job_context
    categories = CategorySet.from_documents(raw_docs)
    jobs = []
    for fraction_index, fraction in enumerate(plan.fractions):
        for split in corpus_mod.make_splits(raw_docs, fraction, plan.n_runs, plan.seed):
            jobs.append((split, fraction_index))

    for doc in raw_docs:
        doc.tokens  # tokenize once here, so forked workers inherit the tokens
    _job_context = (raw_docs, categories, plan)
    try:
        if plan.workers > 1:
            import multiprocessing

            with multiprocessing.get_context("fork").Pool(plan.workers) as pool:
                outcomes = pool.map(_run_split_job, jobs)
        else:
            outcomes = [_run_split_job(job) for job in jobs]
    finally:
        _job_context = None

    cells: list[CellResult] = []
    histogram_logs: dict[float, list[EpisodeLog]] = {}
    for job_cells, logs_by_lambda in outcomes:
        cells.extend(job_cells)
        for lam, logs in logs_by_lambda.items():
            histogram_logs.setdefault(lam, []).extend(logs)

    aggregates = _aggregate(plan, cells)

    histogram = None
    if histogram_logs:
        # Logs exist only for cells that succeeded, so the histogram
        # fraction has an stc row; its lambda picks the logs to bin.
        lam = next(r.lam for r in aggregates if r.method == "stc" and r.fraction == plan.histogram_fraction)
        histogram = reading_histogram(histogram_logs[lam], plan.histogram_bins)

    complete = all(c.error is None for c in cells)
    return ExperimentReport(plan=plan, cells=cells, aggregates=aggregates, histogram=histogram, complete=complete)


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_header(cls) -> list[str]:
    """A report dataclass's fields as CSV columns, in declaration order;
    ``lam`` is written as ``lambda``."""
    return ["lambda" if f.name == "lam" else f.name for f in fields(cls)]


def _write_csv(path: Path, header: list[str], rows) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_format_value(value) for value in row] for row in rows)
    return str(path)


def write_report_files(report: ExperimentReport, out_dir) -> dict[str, str]:
    """Emit cells.csv, aggregate.csv, report.json and (when present)
    reading_histogram.csv. Output is byte-deterministic for a fixed plan."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {
        "cells": _write_csv(out / "cells.csv", _csv_header(CellResult), map(astuple, report.cells)),
        "aggregate": _write_csv(out / "aggregate.csv", _csv_header(AggregateRow), map(astuple, report.aggregates)),
    }

    report_path = out / "report.json"
    payload = {
        "plan": {
            "mode": report.plan.mode,
            "fractions": list(report.plan.fractions),
            "n_runs": report.plan.n_runs,
            "seed": report.plan.seed,
            "stc_lambda_grid": list(report.plan.stc_lambda_grid),
            "baseline_lambda_grid": list(report.plan.baseline_lambda_grid),
            "rollout": {
                "n_states": report.plan.rollout.n_states,
                "rollouts_per_state": report.plan.rollout.rollouts_per_state,
                "iterations": report.plan.rollout.iterations,
            },
            "histogram_fraction": report.plan.histogram_fraction,
            "histogram_bins": report.plan.histogram_bins,
        },
        "complete": report.complete,
        "cells": [asdict(c) for c in report.cells],
        "aggregates": [asdict(a) for a in report.aggregates],
        "histogram": report.histogram,
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    written["report"] = str(report_path)
    if report.histogram is not None:
        columns = ["bin_lo", "bin_hi", "count"]
        written["histogram"] = _write_csv(out / "reading_histogram.csv", columns, report.histogram)
    return written
