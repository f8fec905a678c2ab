"""One workload process: set up the inputs, then run whole rounds.

Started by ``run.py`` with BLAS threads pinned to 1 and ``src`` on the
import path. The process times its own set-up from the moment the
launcher spawned it, repeats identical rounds of calls into ``stc`` for
about ``--seconds`` seconds (at least two), checks every round's outputs
against ``checks.py``, and writes one JSON result file.

With ``--trace 1`` rounds alternate untraced and traced; the traced ones
give the per-layer figures and their ratio to the untraced ones gives
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import checks
from spans import RssProbe, Tracer, layer_metrics, save_spans, summarize
from stc import cli, corpus, evaluation, learn, policy, synthetic
from stc.corpus import CategorySet

MIN_ROUNDS = 2

# Operations that fail on every run because of a known fault in the
# program, with the only failure messages that fault produces. Such a
# failure counts as failed but does not make the run incorrect; any other
# message from the same operation does.
KNOWN_FAULTS = {
    "aggregate.csv": [checks.LAMBDA_NRUNS_SWAP],
}


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-ns", dest="spawned_ns", type=int, required=True)
    parser.add_argument("--run-dir", dest="run_dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", dest="setup_only", action="store_true")
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load_inputs(spec: synthetic.SyntheticSpec, seed: int, run_dir: Path):
    """Generate the corpus, write it as JSONL and load it back."""
    raw = synthetic.generate(replace(spec, seed=seed))
    path = run_dir / "corpus.jsonl"
    corpus.save_jsonl(raw, path)
    docs, dropped = corpus.load_jsonl(path)
    if dropped or len(docs) != len(raw):
        raise RuntimeError(f"corpus round trip lost documents ({len(docs)} of {len(raw)}, {dropped} dropped)")
    return docs, path


class TrainWorkload:
    """One mono-label split of the criterion-5 corpus: prepare it, run
    policy_iteration, evaluate on the test side, and hold the result to
    acceptance criterion 5's bar."""

    spec = synthetic.SyntheticSpec(n_categories=4, docs_per_class=200, sentences_per_doc=6, keyword_positions=(1, 2, 3), noise_vocab_size=50)
    fraction = 0.5
    n_states = 4000
    iterations = 3

    def setup(self, seed: int, run_dir: Path) -> None:
        self.seed = seed
        self.raw, _ = _load_inputs(self.spec, seed, run_dir)
        self.categories = CategorySet.from_documents(self.raw)

    def run(self) -> dict:
        raw, mode, categories = self.raw, "mono", self.categories
        split = corpus.make_splits(raw, self.fraction, 1, self.seed)[0]
        by_id = {d.id: d for d in raw}
        train_raw = [by_id[i] for i in split.train_ids]
        test_raw = [by_id[i] for i in split.test_ids]
        vocab = corpus.build_vocabulary(train_raw)
        train_docs = corpus.vectorize_corpus(train_raw, vocab, categories, mode)
        test_docs = corpus.vectorize_corpus(test_raw, vocab, categories, mode)
        cfg = learn.RolloutConfig(n_states=self.n_states, iterations=self.iterations, seed=self.seed)
        result = learn.policy_iteration(train_docs, mode, cfg)
        preds, logs = evaluation.evaluate_policy(policy.Greedy(result.q), test_docs, mode)
        return {
            "split": split,
            "train_raw": train_raw,
            "test_raw": test_raw,
            "vocab": vocab,
            "docs": train_docs + test_docs,
            "result": result,
            "preds": preds,
            "logs": logs,
            "micro": evaluation.micro_f1(preds),
            "macro": evaluation.macro_f1(preds, len(categories)),
            "read": evaluation.reading_size(logs),
        }

    def check(self, out: dict) -> dict[str, list[str]]:
        names = self.categories.names
        n_categories = len(names)
        split, train_raw, test_raw = out["split"], out["train_raw"], out["test_raw"]
        prepare = []
        if len(train_raw) != math.ceil(self.fraction * len(self.raw)):
            prepare.append(f"{len(train_raw)} training documents, expected ceil({self.fraction} * {len(self.raw)})")
        if set(split.train_ids) & set(split.test_ids) or len(train_raw) + len(test_raw) != len(self.raw):
            prepare.append("train and test sides overlap or miss documents")
        prepare += checks.tfidf_failures(train_raw, out["vocab"], train_raw + test_raw, out["docs"])

        result = out["result"]
        trained = []
        vocab_size = len(out["vocab"])
        if result.q.theta.shape != ((n_categories + 2) * (2 * vocab_size + n_categories),):
            trained.append(f"theta has shape {result.q.theta.shape}")
        if not 1 <= len(result.telemetry) <= self.iterations:
            trained.append(f"{len(result.telemetry)} iteration records for {self.iterations} iterations")
        if any(r["n_examples"] < 1 or not 0.0 <= r["mean_episode_reward"] <= 1.0 for r in result.telemetry):
            trained.append("an iteration record has no examples or a reward outside [0, 1]")

        episodes = checks.episode_failures(test_raw, names, out["preds"], out["logs"])

        pairs = [(checks.label_vector(d.labels, names), log.final_assigned) for d, log in zip(test_raw, out["logs"])]
        micro, macro = checks.micro_macro(pairs, n_categories)
        read = sum(log.sentences_read / log.n_sentences for log in out["logs"]) / len(out["logs"])
        metrics = [
            f"{name} {got} != recomputed {want}"
            for name, got, want in (("micro-F1", out["micro"], micro), ("macro-F1", out["macro"], macro), ("reading size", out["read"], read))
            if abs(got - want) > checks.TOL
        ]

        bar = []
        if micro < 0.95:
            bar.append(f"accuracy (micro-F1) {micro:.4f} < 0.95")
        if read > 0.70:
            bar.append(f"reading size {read:.4f} > 0.70")
        return {
            "prepare split": prepare,
            "policy_iteration": trained,
            "evaluate_policy": episodes,
            "metrics": metrics,
            "learning bar": bar,
        }


class GridWorkload:
    """``stc experiment`` on an R8-shaped corpus over several fractions x
    runs with a fork pool."""

    spec = synthetic.SyntheticSpec(
        n_categories=8,
        docs_per_class=50,
        sentences_per_doc=8,
        keyword_positions=(1, 2, 3, 4, 5, 6, 7, 8),
        noise_vocab_size=3000,
        words_per_sentence=10,
    )
    config = {
        "mode": "mono",
        "fractions": [0.1, 0.3, 0.5],
        "n_runs": 2,
        "workers": 2,
        "stc": {"n_states": 100, "iterations": 2, "epochs": 3, "lambda_grid": [1e-3]},
        "baseline": {"epochs": 5, "lambda_grid": [1e-5, 1e-4, 1e-3]},
        "histogram": {"fraction": 0.3, "bins": 10},
    }
    report_files = ("cells.csv", "aggregate.csv", "report.json", "reading_histogram.csv")

    def setup(self, seed: int, run_dir: Path) -> None:
        self.seed = seed
        self.raw, corpus_path = _load_inputs(self.spec, seed, run_dir)
        self.out_dir = run_dir / "experiment"
        config = dict(self.config, corpus=str(corpus_path), seed=seed, output_dir=str(self.out_dir))
        self.config_path = run_dir / "experiment.json"
        self.config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        self.first_bytes = None

    def run(self) -> dict:
        return {"exit": cli.main(["experiment", "--config", str(self.config_path)])}

    def check(self, out: dict) -> dict[str, list[str]]:
        files = {name: (self.out_dir / name).read_bytes() for name in self.report_files}
        experiment = [] if out["exit"] == 0 else [f"stc experiment exited {out['exit']}"]
        if self.first_bytes is None:
            self.first_bytes = files
        differing = [name for name in self.report_files if files[name] != self.first_bytes[name]]
        if differing:
            experiment.append(f"not byte-identical to the first round: {', '.join(differing)}")

        text = {name: data.decode("utf-8") for name, data in files.items()}
        report = json.loads(text["report.json"])
        cfg = self.config
        n_cells = len(cfg["fractions"]) * cfg["n_runs"] * (len(cfg["baseline"]["lambda_grid"]) + len(cfg["stc"]["lambda_grid"]))
        cells = checks.cells_csv_failures(text["cells.csv"], report)
        if len(report["cells"]) != n_cells or any(c["error"] is not None for c in report["cells"]):
            cells.append(f"expected {n_cells} cells without errors")
        consistency = checks.aggregate_failures(report)
        if not report["complete"]:
            consistency.append("report.json says the grid is incomplete")
        n_test = len(self.raw) - math.ceil(cfg["histogram"]["fraction"] * len(self.raw))

        # The program's vectors of one split, rebuilt apart: the first run
        # at the smallest fraction, with its training side and a sample of
        # its test side.
        split = corpus.make_splits(self.raw, cfg["fractions"][0], 1, self.seed)[0]
        by_id = {d.id: d for d in self.raw}
        train_raw = [by_id[i] for i in split.train_ids]
        sample = train_raw + [by_id[i] for i in split.test_ids[:40]]
        vocab = corpus.build_vocabulary(train_raw)
        docs = corpus.vectorize_corpus(sample, vocab, CategorySet.from_documents(self.raw), cfg["mode"])
        return {
            "experiment": experiment,
            "cells.csv": cells,
            "aggregate.csv": checks.aggregate_csv_failures(text["aggregate.csv"], report),
            "report.json": consistency,
            "reading_histogram.csv": checks.histogram_failures(text["reading_histogram.csv"], report, n_test),
            "vectorize": checks.tfidf_failures(train_raw, vocab, sample, docs),
        }


WORKLOADS = {"train-mono": TrainWorkload, "grid-r8like": GridWorkload}


def main(argv=None) -> int:
    args = _parse_args(argv)
    run_dir = Path(args.run_dir)
    tracer = None
    if args.trace:
        tracer = Tracer(run_dir)
        tracer.install()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, run_dir)
    setup_s = (time.perf_counter_ns() - args.spawned_ns) * 1e-9
    result = {"setup_s": setup_s}
    if tracer is not None:
        tracer.uninstall()
        setup_trace = tracer.take()
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    probe = RssProbe(run_dir)
    if isinstance(workload, GridWorkload):
        probe.install()

    walls: dict[bool, list[float]] = {False: [], True: []}
    rss: list[float] = []
    layers: list[dict[str, float]] = []
    traced_rounds = []
    attempted = failed = 0
    correct = True
    loop_start = time.perf_counter()
    round_index = 0
    while True:
        traced = tracer is not None and round_index % 2 == 1
        if traced:
            tracer.install()
        start = time.perf_counter()
        out = workload.run()
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            spans = (tracer.take(), tracer.collect_workers())
            traced_rounds.append(spans)
            layers.append(layer_metrics(summarize(*spans)))
        walls[traced].append(wall)
        rss.append(_peak_rss_mb() + probe.collect_mb())

        checked = workload.check(out)
        del out  # a round's outputs must not stay alive into the next round's peak RSS
        for op, failures in checked.items():
            attempted += 1
            if failures:
                failed += 1
                known = failures == KNOWN_FAULTS.get(op)
                correct = correct and known
                if round_index == 0:
                    label = "known fault" if known else "FAILED"
                    print(f"{args.workload} {op} {label}: {'; '.join(failures)}", file=sys.stderr)
        round_index += 1
        elapsed = time.perf_counter() - loop_start
        if round_index >= MIN_ROUNDS and elapsed * (round_index + 1) / round_index > args.seconds:
            break

    result.update(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "rounds": round_index,
            "walls": walls[False],
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mb": statistics.median(rss),
        }
    )
    if tracer is not None:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["corpus.load_jsonl_s"] = summarize(setup_trace, [])["total_s"].get("corpus.load_jsonl", 0.0)
        per_layer["trace.wall_s"] = statistics.median(walls[True])
        per_layer["trace.overhead_share"] = per_layer["trace.wall_s"] / statistics.median(walls[False]) - 1.0
        result["per_layer"] = per_layer
        save_spans(run_dir.parent / f"spans-{args.workload}-seed{args.seed}.npz", traced_rounds)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
