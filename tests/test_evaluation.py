import csv
import json
import math

import numpy as np
import pytest

from conftest import ScriptedPolicy, make_doc
from stc import evaluation, preprocess, synthetic
from stc.corpus import MONO_LABEL, Split
from stc.evaluation import (
    ExperimentPlan,
    Prediction,
    f1_scores,
    macro_f1,
    micro_f1,
    reading_histogram,
    reading_size,
    run_experiment,
    write_report_files,
)
from stc.learn import RolloutConfig
from stc.mdp import EpisodeLog, NEXT, STOP, classify, prf1, run_episode
from stc.policy import ClassifierConfig

# Hand-pooled confusion fixtures: (pairs, micro, macro over C classes).
MICRO_MACRO_FIXTURES = [
    ([((1, 0), (1, 0)), ((0, 1), (1, 0))], 0.5, 0.3333333333333333),
    ([((1, 0), (1, 0)), ((0, 1), (0, 1))], 1.0, 1.0),
    ([((1, 0), (0, 0)), ((0, 1), (0, 0))], 0.0, 0.0),
    ([((1, 0, 0), (1, 1, 0)), ((0, 1, 0), (0, 1, 0)), ((0, 0, 1), (1, 0, 0))], 0.5714285714285714, 0.4444444444444444),
    ([((1, 1), (1, 0)), ((1, 0), (1, 1)), ((0, 1), (0, 1))], 0.75, 0.75),
    ([((1, 0, 1, 0), (1, 1, 0, 0)), ((0, 1, 0, 1), (0, 1, 0, 1))], 0.75, 0.6666666666666666),
]

# Hand-evaluated reading-size fixtures: ((l, n) pairs, mean of l/n).
READING_FIXTURES = [
    ([(2, 4), (4, 4)], 0.75),
    ([(1, 1)], 1.0),
    ([(1, 10), (1, 10), (1, 10)], 0.1),
    ([(3, 7), (2, 5), (6, 6)], 0.6095238095238096),
    ([(1, 2), (1, 3), (1, 4), (1, 5)], 0.32083333333333336),
    ([(5, 9), (9, 9), (1, 9)], 0.5555555555555556),
]


def _preds(pairs):
    return [Prediction(f"d{i}", y, y_hat) for i, (y, y_hat) in enumerate(pairs)]


def _logs(pairs):
    return [
        EpisodeLog(f"d{i}", (STOP,), l, n, (1,), 1.0) for i, (l, n) in enumerate(pairs)
    ]


class TestMetrics:
    @pytest.mark.parametrize("pairs,expected_micro,expected_macro", MICRO_MACRO_FIXTURES)
    def test_micro_macro_fixtures(self, pairs, expected_micro, expected_macro):
        preds = _preds(pairs)
        micro, macro = micro_f1(preds), macro_f1(preds, len(pairs[0][0]))
        assert micro == pytest.approx(expected_micro, abs=1e-12)
        assert macro == pytest.approx(expected_macro, abs=1e-12)
        assert type(micro) is float and type(macro) is float  # repr() goes into cells.csv

    def test_no_predictions(self):
        with pytest.raises(ValueError, match="no predictions"):
            micro_f1([])
        with pytest.raises(ValueError, match="no predictions"):
            macro_f1([], 2)

    def test_perfect_predictions(self):
        preds = _preds([((1, 0), (1, 0))] * 5)
        assert micro_f1(preds) == 1.0
        assert macro_f1(preds, 2) == pytest.approx(0.5)  # class 1 never appears

    def test_all_zero_predictions(self):
        preds = _preds([((1, 0), (0, 0)), ((1, 0), (0, 0))])
        assert micro_f1(preds) == 0.0

    def test_macro_counts_absent_classes_as_zero(self):
        preds = _preds([((1, 0), (1, 0))])
        assert macro_f1(preds, 2) == pytest.approx(0.5)

    def test_mono_micro_equals_accuracy(self):
        rng = np.random.default_rng(0)
        n_cats = 4
        pairs = []
        correct = 0
        for _ in range(200):
            y = np.zeros(n_cats, dtype=int)
            y[rng.integers(n_cats)] = 1
            y_hat = np.zeros(n_cats, dtype=int)
            y_hat[rng.integers(n_cats)] = 1
            correct += int(np.array_equal(y, y_hat))
            pairs.append((tuple(y), tuple(y_hat)))
        assert micro_f1(_preds(pairs)) == pytest.approx(correct / 200, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pairs = []
            for _ in range(10):
                y = tuple(int(v) for v in rng.integers(0, 2, 3))
                y_hat = tuple(int(v) for v in rng.integers(0, 2, 3))
                pairs.append((y if sum(y) else (1, 0, 0), y_hat))
            assert 0.0 <= micro_f1(_preds(pairs)) <= 1.0
            assert 0.0 <= macro_f1(_preds(pairs), 3) <= 1.0


class TestLabelMatrices:
    """``f1_scores`` against F1 taken with ``prf1`` over flattened and
    per-class label lists, bit for bit."""

    @staticmethod
    def _reference(y, y_hat):
        micro = prf1(y.ravel().tolist(), y_hat.ravel().tolist())[2]
        total = 0.0
        for k in range(y.shape[1]):
            total += prf1(y[:, k].tolist(), y_hat[:, k].tolist())[2]
        return micro, total / y.shape[1]

    def test_matches_prf1_on_random_matrices(self):
        rng = np.random.default_rng(6)
        for trial in range(300):
            n, n_cats = int(rng.integers(1, 40)), int(rng.integers(1, 9))
            y = (rng.random((n, n_cats)) < 0.3).astype(np.int8)
            if trial % 2:  # mono-label rows
                y = np.eye(n_cats, dtype=np.int8)[rng.integers(n_cats, size=n)]
            y_hat = (rng.random((n, n_cats)) < 0.3).astype(np.int8)
            micro, macro = f1_scores(y, y_hat)
            assert type(micro) is float and type(macro) is float
            assert (micro.hex(), macro.hex()) == tuple(v.hex() for v in self._reference(y, y_hat))
            preds = [Prediction(f"d{i}", tuple(a), tuple(b)) for i, (a, b) in enumerate(zip(y.tolist(), y_hat.tolist()))]
            assert (micro_f1(preds).hex(), macro_f1(preds, n_cats).hex()) == (micro.hex(), macro.hex())

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError, match="no predictions"):
            f1_scores(np.zeros((0, 3), dtype=np.int8), np.zeros((0, 3), dtype=np.int8))
        with pytest.raises(ValueError, match="differ in shape"):
            f1_scores(np.zeros((2, 3), dtype=np.int8), np.zeros((2, 2), dtype=np.int8))


class TestReadingSize:
    @pytest.mark.parametrize("pairs,expected", READING_FIXTURES)
    def test_fixtures(self, pairs, expected):
        assert reading_size(_logs(pairs)) == pytest.approx(expected, abs=1e-12)

    def test_full_read_is_one(self):
        assert reading_size(_logs([(4, 4), (7, 7)])) == 1.0

    def test_range(self):
        assert 0.0 < reading_size(_logs([(1, 9)])) <= 1.0


class TestReadingHistogram:
    def test_all_full_reads_in_last_bin(self):
        hist = reading_histogram(_logs([(3, 3), (5, 5)]), 10)
        assert hist[-1][2] == 2
        assert sum(count for _, _, count in hist) == 2

    def test_binning_example(self):
        # ratios 0.05, 0.06 -> first bin; 0.95 -> last bin (right-closed).
        logs = _logs([(5, 100), (6, 100), (95, 100)])
        hist = reading_histogram(logs, 10)
        assert hist[0][2] == 2
        assert hist[-1][2] == 1
        assert sum(c for _, _, c in hist) == 3

    def test_boundary_value_falls_left(self):
        hist = reading_histogram(_logs([(1, 10)]), 10)  # exactly 0.1
        assert hist[0][2] == 1

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(2)
        pairs = [(int(rng.integers(1, n + 1)), n) for n in rng.integers(1, 12, 50)]
        hist = reading_histogram(_logs(pairs), 7)
        assert sum(c for _, _, c in hist) == 50


def _tiny_plan(**kwargs):
    defaults = dict(
        mode=MONO_LABEL,
        fractions=(0.5,),
        n_runs=2,
        seed=11,
        rollout=RolloutConfig(
            n_states=60, iterations=2, seed=0, classifier=ClassifierConfig(lam=1e-3, epochs=4)
        ),
        stc_lambda_grid=(1e-3,),
        baseline=ClassifierConfig(epochs=4),
        baseline_lambda_grid=(1e-3,),
        histogram_fraction=0.5,
        histogram_bins=5,
    )
    defaults.update(kwargs)
    return ExperimentPlan(**defaults)


def _tiny_corpus(seed=0):
    spec = synthetic.SyntheticSpec(
        n_categories=2,
        docs_per_class=20,
        sentences_per_doc=3,
        keyword_positions=(1, 2),
        noise_vocab_size=8,
        seed=seed,
    )
    return synthetic.generate(spec)


def _partial_corpus():
    """18 documents: at fraction 0.95 every split trains on all of them and
    leaves no test document."""
    spec = synthetic.SyntheticSpec(
        n_categories=2,
        docs_per_class=9,
        sentences_per_doc=3,
        keyword_positions=(1, 2),
        noise_vocab_size=8,
        seed=0,
    )
    return synthetic.generate(spec)


class TestAggregate:
    def test_rounding_tie_goes_to_smaller_lambda(self):
        # 155 of 400 test documents right at both lambdas: the means tie in
        # exact arithmetic, but prf1 rounds 80/200 to 0.4000000000000001.
        cells = [
            evaluation.CellResult("baseline", 0.5, 0, 1e-5, micro_f1=0.38, macro_f1=0.3),
            evaluation.CellResult("baseline", 0.5, 1, 1e-5, micro_f1=0.395, macro_f1=0.3),
            evaluation.CellResult("baseline", 0.5, 0, 1e-3, micro_f1=0.4000000000000001, macro_f1=0.3),
            evaluation.CellResult("baseline", 0.5, 1, 1e-3, micro_f1=0.375, macro_f1=0.3),
        ]
        plan = _tiny_plan(fractions=(0.5,), baseline_lambda_grid=(1e-5, 1e-3))
        assert np.mean([0.4000000000000001, 0.375]) > np.mean([0.38, 0.395])
        (row,) = evaluation._aggregate(plan, cells)
        assert row.lam == 1e-5
        assert row.micro_f1_mean == np.mean([0.38, 0.395])

    def test_clear_winner_still_wins(self):
        cells = [
            evaluation.CellResult("baseline", 0.5, 0, 1e-5, micro_f1=0.38, macro_f1=0.3),
            evaluation.CellResult("baseline", 0.5, 0, 1e-3, micro_f1=0.38 + 1e-9, macro_f1=0.3),
        ]
        plan = _tiny_plan(fractions=(0.5,), n_runs=1, baseline_lambda_grid=(1e-5, 1e-3))
        assert [r.lam for r in evaluation._aggregate(plan, cells)] == [1e-3]


class TestExperimentPlan:
    def test_histogram_fraction_outside_fractions_rejected(self):
        with pytest.raises(ValueError, match="histogram_fraction"):
            ExperimentPlan(mode=MONO_LABEL, fractions=(0.5,))

    def test_no_histogram_is_valid(self):
        assert ExperimentPlan(mode=MONO_LABEL, fractions=(0.5,), histogram_fraction=None).histogram_fraction is None


class TestRunExperiment:
    def test_grid_size_and_report_shape(self):
        raw = _tiny_corpus()
        report = run_experiment(raw, _tiny_plan())
        assert len(report.cells) == 4  # 1 fraction x 2 runs x 2 methods x 1 lambda
        assert report.complete
        methods = {c.method for c in report.cells}
        assert methods == {"baseline", "stc"}
        assert len(report.aggregates) == 2
        assert report.histogram is not None
        # Pooled over runs: n_runs x |test side| = 2 x 20 documents.
        assert sum(c for _, _, c in report.histogram) == 40

    def test_report_files_deterministic(self, tmp_path):
        raw = _tiny_corpus(seed=3)
        plan = _tiny_plan(n_runs=1)
        a = run_experiment(raw, plan)
        b = run_experiment(raw, plan)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_report_files(a, dir_a)
        write_report_files(b, dir_b)
        for name in ["cells.csv", "aggregate.csv", "report.json", "reading_histogram.csv"]:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_aggregate_recomputation_matches(self):
        raw = _tiny_corpus(seed=5)
        report = run_experiment(raw, _tiny_plan())
        for row in report.aggregates:
            group = [
                c
                for c in report.cells
                if c.method == row.method and c.fraction == row.fraction and c.lam == row.lam
            ]
            assert row.n_runs == len(group)
            assert row.micro_f1_mean == pytest.approx(np.mean([c.micro_f1 for c in group]), abs=1e-15)
            assert row.micro_f1_std == pytest.approx(np.std([c.micro_f1 for c in group]), abs=1e-15)

    def test_lambda_grid_selection_prefers_higher_mean_micro(self):
        raw = _tiny_corpus(seed=7)
        plan = _tiny_plan(baseline_lambda_grid=(1e-3, 1e3))  # absurd lambda should lose
        report = run_experiment(raw, plan)
        baseline_row = [r for r in report.aggregates if r.method == "baseline"][0]
        grouped = {}
        for c in report.cells:
            if c.method == "baseline":
                grouped.setdefault(c.lam, []).append(c.micro_f1)
        means = {lam: np.mean(v) for lam, v in grouped.items()}
        assert means[baseline_row.lam] == max(means.values())

    def test_stc_beats_chance_on_easy_corpus(self):
        spec = synthetic.SyntheticSpec(
            n_categories=2,
            docs_per_class=40,
            sentences_per_doc=3,
            keyword_positions=(1, 2),
            noise_vocab_size=8,
            seed=9,
        )
        raw = synthetic.generate(spec)
        plan = _tiny_plan(
            rollout=RolloutConfig(
                n_states=2000, iterations=5, seed=1, classifier=ClassifierConfig(lam=1e-3, epochs=5)
            ),
            n_runs=1,
        )
        report = run_experiment(raw, plan)
        stc_rows = [r for r in report.aggregates if r.method == "stc"]
        assert stc_rows[0].micro_f1_mean >= 0.9
        assert stc_rows[0].reading_size_mean is not None

    def test_worker_pool_gives_identical_report(self, tmp_path):
        raw = _tiny_corpus(seed=2)
        seq_plan = _tiny_plan(n_runs=2, workers=1)
        par_plan = _tiny_plan(n_runs=2, workers=2)
        dir_a, dir_b = tmp_path / "seq", tmp_path / "par"
        write_report_files(run_experiment(raw, seq_plan), dir_a)
        write_report_files(run_experiment(raw, par_plan), dir_b)
        for name in ["cells.csv", "aggregate.csv", "report.json", "reading_histogram.csv"]:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    def test_aggregate_csv_columns_match_report_json(self, tmp_path):
        # A partial grid, so that cells.csv also holds error messages.
        report = run_experiment(_partial_corpus(), _tiny_plan(fractions=(0.5, 0.95), baseline_lambda_grid=(1e-4, 1e-3)))
        write_report_files(report, tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        histogram = [dict(zip(("bin_lo", "bin_hi", "count"), entry)) for entry in payload["histogram"]]
        for name, entries in (
            ("aggregate.csv", payload["aggregates"]),
            ("cells.csv", payload["cells"]),
            ("reading_histogram.csv", histogram),
        ):
            with open(tmp_path / name, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            assert rows and len(rows) == len(entries), name
            for row, entry in zip(rows, entries):
                if "lam" in entry:
                    entry["lambda"] = entry.pop("lam")
                assert set(row) == set(entry), name
                for column, value in entry.items():
                    text = row[column]
                    assert (text if isinstance(value, str) else float(text) if text else None) == value, (name, column)

    def test_a_fraction_without_test_documents_fails_only_its_cells(self):
        raw = _partial_corpus()
        plan = _tiny_plan(fractions=(0.5, 0.95), baseline_lambda_grid=(1e-4, 1e-3), stc_lambda_grid=(1e-3, 1e-2))
        assert math.ceil(0.95 * len(raw)) == len(raw)  # the 0.95 splits leave no test document
        report = run_experiment(raw, plan)
        assert not report.complete
        cells = [(c.method, c.fraction, c.run, c.lam, c.error) for c in report.cells]
        table = [("baseline", 1e-4), ("baseline", 1e-3), ("stc", 1e-3), ("stc", 1e-2)]
        assert cells == [
            (method, fraction, run, lam, None if fraction == 0.5 else "no predictions")
            for fraction in (0.5, 0.95)
            for run in range(plan.n_runs)
            for method, lam in table
        ]
        failed = [c for c in report.cells if c.error is not None]
        assert all(c.micro_f1 is None and c.macro_f1 is None and c.reading_size is None for c in failed)
        assert [(r.method, r.fraction, r.n_runs) for r in report.aggregates] == [("baseline", 0.5, 2), ("stc", 0.5, 2)]
        # Pooled over the 0.5 runs: 2 x 9 test documents.
        assert sum(count for _, _, count in report.histogram) == 2 * (len(raw) - math.ceil(0.5 * len(raw)))

    def test_split_preparation_failure_marks_every_cell_in_table_order(self):
        raw = _tiny_corpus(seed=1)
        raw[3].labels = frozenset(label for d in raw for label in d.labels)  # both categories
        plan = _tiny_plan(fractions=(0.3, 0.5), baseline_lambda_grid=(1e-4, 1e-3), stc_lambda_grid=(1e-3, 1e-2))
        report = run_experiment(raw, plan)
        message = f"split preparation failed: document {raw[3].id!r} has 2 labels in mono-label mode"
        table = [("baseline", 1e-4), ("baseline", 1e-3), ("stc", 1e-3), ("stc", 1e-2)]
        assert [(c.method, c.fraction, c.run, c.lam) for c in report.cells] == [
            (method, fraction, run, lam) for fraction in (0.3, 0.5) for run in range(plan.n_runs) for method, lam in table
        ]
        assert all(c.error == message and c.micro_f1 is None for c in report.cells)
        assert not report.complete and report.aggregates == [] and report.histogram is None

    def test_each_sentence_tokenized_once_and_jobs_hold_no_documents(self, monkeypatch):
        raw = _tiny_corpus(seed=4)
        calls = []
        preprocess_sentence = preprocess.preprocess_sentence
        monkeypatch.setattr(preprocess, "preprocess_sentence", lambda s: calls.append(s) or preprocess_sentence(s))
        jobs = []
        run_split_job = evaluation._run_split_job
        monkeypatch.setattr(evaluation, "_run_split_job", lambda job: jobs.append(job) or run_split_job(job))
        run_experiment(raw, _tiny_plan(fractions=(0.3, 0.5), n_runs=2, workers=1))
        assert len(calls) == sum(len(d.sentences) for d in raw)
        assert len(jobs) == 4
        assert all(len(job) == 2 and isinstance(job[0], Split) and isinstance(job[1], int) for job in jobs)
        assert evaluation._job_context is None
