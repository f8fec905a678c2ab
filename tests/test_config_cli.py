import json
from pathlib import Path

import pytest

from stc import corpus as corpus_mod
from stc import evaluation, synthetic
from stc.cli import main
from stc.config import ConfigError, load_config
from stc.corpus import save_jsonl
from stc.evaluation import ExperimentPlan
from stc.learn import RolloutConfig
from stc.policy import ClassifierConfig


@pytest.fixture
def corpus_file(tmp_path):
    spec = synthetic.SyntheticSpec(
        n_categories=2, docs_per_class=15, sentences_per_doc=3,
        keyword_positions=(1, 2), noise_vocab_size=8, seed=4,
    )
    path = tmp_path / "corpus.jsonl"
    save_jsonl(synthetic.generate(spec), path)
    return path


@pytest.fixture
def config_file(tmp_path, corpus_file):
    config = {
        "corpus": str(corpus_file),
        "mode": "mono",
        "seed": 5,
        "output_dir": str(tmp_path / "out"),
        "fractions": [0.5],
        "n_runs": 1,
        "stc": {"n_states": 150, "iterations": 2, "epochs": 3, "lambda_grid": [1e-3]},
        "baseline": {"epochs": 3, "lambda_grid": [1e-3]},
        "histogram": {"fraction": 0.5, "bins": 5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _relabelled(corpus_file, tmp_path, labels):
    """A copy of the corpus whose first document is 'm1' with ``labels``."""
    records = [json.loads(line) for line in corpus_file.read_text().splitlines()]
    records[0].update(id="m1", labels=labels)
    path = tmp_path / "relabelled.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


@pytest.fixture
def split_calls(monkeypatch):
    """Every ``corpus.make_splits`` call of the test."""
    calls = []
    real = corpus_mod.make_splits
    monkeypatch.setattr(corpus_mod, "make_splits", lambda *args: calls.append(args) or real(*args))
    return calls


class TestConfig:
    def test_load_valid(self, config_file):
        cfg = load_config(config_file)
        assert cfg.plan.mode == "mono"
        assert cfg.plan.fractions == (0.5,)
        assert cfg.plan.rollout.n_states == 150

    def test_unknown_top_level_key(self, tmp_path, config_file):
        raw = json.loads(config_file.read_text())
        raw["n_run"] = 3  # typo
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="n_run"):
            load_config(bad)

    def test_unknown_nested_key(self, tmp_path, config_file):
        raw = json.loads(config_file.read_text())
        raw["stc"]["rollouts"] = 2  # typo for rollouts_per_state
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="config.stc"):
            load_config(bad)

    def test_seed_required(self, tmp_path, config_file):
        raw = json.loads(config_file.read_text())
        del raw["seed"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="seed"):
            load_config(bad)

    def test_missing_corpus_path(self, tmp_path, config_file):
        raw = json.loads(config_file.read_text())
        raw["corpus"] = str(tmp_path / "nope.jsonl")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(bad)

    def test_overrides_beat_file(self, config_file):
        cfg = load_config(config_file, overrides={"seed": 99})
        assert cfg.plan.seed == 99

    def test_omitted_settings_take_the_library_defaults(self, tmp_path, corpus_file):
        minimal = tmp_path / "minimal.json"
        minimal.write_text(json.dumps({"corpus": str(corpus_file), "mode": "multi", "seed": 3, "output_dir": "out"}))
        cfg = load_config(minimal)
        # The baseline's lambda is the first entry of its default grid, not
        # ClassifierConfig's own default.
        assert cfg.plan == ExperimentPlan(
            "multi",
            seed=3,
            rollout=RolloutConfig(seed=3, classifier=ClassifierConfig(seed=3)),
            baseline=ClassifierConfig(lam=1e-5, seed=3),
        )

    def test_file_paths_resolve_against_the_file_and_flag_paths_against_the_working_directory(
        self, tmp_path, corpus_file, monkeypatch
    ):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "a.jsonl").write_bytes(corpus_file.read_bytes())
        config = sub / "run.json"
        config.write_text(json.dumps({"corpus": "a.jsonl", "mode": "mono", "seed": 5, "output_dir": "out",
                                      "fractions": [0.5], "baseline": {"epochs": 1}}))
        monkeypatch.chdir(tmp_path)
        cfg = load_config("sub/run.json")
        assert (cfg.corpus, cfg.output_dir) == (Path("sub/a.jsonl"), Path("sub/out"))
        cfg = load_config("sub/run.json", {"corpus": "sub/a.jsonl", "output_dir": "o2"})
        assert (cfg.corpus, cfg.output_dir) == (Path("sub/a.jsonl"), Path("o2"))

        flags = ["--corpus", "sub/a.jsonl", "--output-dir", "o2"]
        assert main(["train", "--config", "sub/run.json", "--method", "baseline", *flags]) == 0
        assert (tmp_path / "o2" / "baseline.model.json").exists()
        assert not (sub / "o2").exists()

    def test_bad_fraction(self, tmp_path, config_file):
        raw = json.loads(config_file.read_text())
        raw["fractions"] = [1.5]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="fractions"):
            load_config(bad)


    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("histogram", "bins", 0),
            ("stc", "n_states", "100"),
            ("stc", "rollouts_per_state", 1.5),
            ("stc", "iterations", True),
            ("stc", "epochs", -1),
            ("baseline", "epochs", None),
            ("histogram", "fraction", 1.0),
            ("histogram", "fraction", False),
            (None, "fractions", [0.5, 0.5]),
            (None, "fractions", 0.5),
            (None, "n_runs", True),
            (None, "seed", True),
            ("stc", "lambda_grid", 0.001),
            ("stc", "lambda_grid", [0.001, 0.001]),
            ("stc", "lambda_grid", [True]),
            ("baseline", "lambda_grid", [1e-4, 1e-4]),
            ("baseline", "lambda_grid", [True]),
            ("histogram", "fraction", 0.3),  # not one of the fractions
        ],
    )
    def test_invalid_value_fails_before_compute(self, tmp_path, config_file, section, key, value):
        raw = json.loads(config_file.read_text())
        (raw[section] if section else raw)[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=key):
            load_config(bad)
        assert main(["experiment", "--config", str(bad)]) == 1
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("key, value", [("corpus", 5), ("output_dir", None), ("output_dir", ["out"])])
    def test_non_string_path_fails_before_compute(self, tmp_path, config_file, key, value):
        raw = json.loads(config_file.read_text())
        raw[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=key):
            load_config(bad)
        assert main(["experiment", "--config", str(bad)]) == 1


class TestConvert:
    def test_cardoso_roundtrip(self, tmp_path, capsys):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text("earn\tprofits rose. costs fell.\nacq\tmerger done.\n", encoding="utf-8")
        test.write_text("earn\tdividends up.\n", encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        code = main(["convert", "--layout", "cardoso", "--train", str(train),
                     "--test", str(test), "--out", str(out)])
        assert code == 0
        assert "3 documents" in capsys.readouterr().out
        assert out.exists()

    def test_dirs_by_class(self, tmp_path, capsys):
        for cls in ("spam", "ham"):
            d = tmp_path / "data" / cls
            d.mkdir(parents=True)
            (d / "a.txt").write_text(f"text about {cls}. more text.", encoding="utf-8")
        out = tmp_path / "corpus.jsonl"
        code = main(["convert", "--layout", "dirs-by-class", "--root", str(tmp_path / "data"),
                     "--out", str(out)])
        assert code == 0
        assert "2 categories" in capsys.readouterr().out

    def test_missing_input_is_validation_error(self, tmp_path):
        code = main(["convert", "--layout", "cardoso", "--train", str(tmp_path / "no.txt"),
                     "--test", str(tmp_path / "no2.txt"), "--out", str(tmp_path / "o.jsonl")])
        assert code == 1

    def test_empty_input_dir_is_validation_error(self, tmp_path):
        (tmp_path / "empty").mkdir()
        code = main(["convert", "--layout", "dirs-by-class", "--root", str(tmp_path / "empty"),
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == 1


class TestTrainEvaluateTrace:
    def test_baseline_train_then_evaluate(self, config_file, tmp_path, capsys):
        assert main(["train", "--config", str(config_file), "--method", "baseline"]) == 0
        model = tmp_path / "out" / "baseline.model.json"
        assert model.exists()
        assert main(["evaluate", "--config", str(config_file), "--model", str(model)]) == 0
        out = capsys.readouterr().out
        assert "micro_f1" in out
        assert (tmp_path / "out" / "metrics_baseline.json").exists()

    @pytest.mark.parametrize("method", ["baseline", "stc"])
    def test_evaluate_scores_a_model_the_way_a_split_job_does(self, config_file, tmp_path, monkeypatch, method):
        assert main(["train", "--config", str(config_file), "--method", method]) == 0
        scored = []
        real = evaluation.score

        def spy(*args):
            scores, logs = real(*args)
            scored.append(scores)
            return scores, logs

        monkeypatch.setattr(evaluation, "score", spy)
        model = tmp_path / "out" / f"{method}.model.json"
        assert main(["evaluate", "--config", str(config_file), "--model", str(model)]) == 0
        metrics = json.loads((tmp_path / "out" / f"metrics_{method}.json").read_text())
        assert len(scored) == 1 and ("reading_size" in scored[0]) == (method == "stc")
        assert metrics == {"method": method, "fraction": 0.5, "run": 0, **scored[0]}

    def test_stc_train_writes_telemetry_and_trace_runs(self, config_file, corpus_file, tmp_path, capsys):
        assert main(["train", "--config", str(config_file), "--method", "stc"]) == 0
        model = tmp_path / "out" / "stc.model.json"
        telemetry = tmp_path / "out" / "telemetry.jsonl"
        assert model.exists() and telemetry.exists()
        records = [json.loads(line) for line in telemetry.read_text().splitlines()]
        assert all(
            set(r) == {"iteration", "n_examples", "n_skipped_states", "mean_episode_reward"}
            for r in records
        )
        capsys.readouterr()

        doc_id = json.loads(corpus_file.read_text().splitlines()[0])["id"]
        assert main(["trace", "--model", str(model), "--corpus", str(corpus_file),
                     "--doc-id", doc_id]) == 0
        out = capsys.readouterr().out
        assert "step 1:" in out and "reward:" in out
        steps = [line for line in out.splitlines() if line.startswith("step ")]
        assert steps
        for line in steps:
            margin = line.split(" margin=", 1)[1]
            if margin != "forced":
                value, *flag = margin.split(" ")
                assert float(value) >= 0.0
                assert flag == (["near-tie"] if float(value) <= 1e-12 else [])

    def test_trace_flags_every_decision_of_a_zero_theta_as_a_near_tie(
        self, config_file, corpus_file, tmp_path, capsys
    ):
        assert main(["train", "--config", str(config_file), "--method", "stc"]) == 0
        model = tmp_path / "out" / "stc.model.json"
        record = json.loads(model.read_text())
        record["weights"]["theta"].update(indices=[], values=[])
        model.write_text(json.dumps(record))
        capsys.readouterr()

        doc_id = json.loads(corpus_file.read_text().splitlines()[0])["id"]
        assert main(["trace", "--model", str(model), "--corpus", str(corpus_file), "--doc-id", doc_id]) == 0
        steps = [line for line in capsys.readouterr().out.splitlines() if line.startswith("step ")]
        margins = [line.split(" margin=", 1)[1] for line in steps]
        # Every score is 0: the first legal action wins each tie, so a mono
        # agent classifies at sentence 1 and then takes the forced stop.
        assert margins == ["0.000e+00 near-tie", "forced"]

    def test_train_rerun_is_byte_identical(self, config_file, tmp_path):
        assert main(["train", "--config", str(config_file), "--method", "baseline"]) == 0
        first = (tmp_path / "out" / "baseline.model.json").read_bytes()
        assert main(["train", "--config", str(config_file), "--method", "baseline"]) == 0
        second = (tmp_path / "out" / "baseline.model.json").read_bytes()
        assert first == second

    def test_evaluate_checksum_mismatch_fails(self, config_file, tmp_path, corpus_file):
        assert main(["train", "--config", str(config_file), "--method", "baseline"]) == 0
        model = tmp_path / "out" / "baseline.model.json"
        record = json.loads(model.read_text())
        record["vocab_checksum"] = "0" * 64
        model.write_text(json.dumps(record))
        assert main(["evaluate", "--config", str(config_file), "--model", str(model)]) == 1
        assert not (tmp_path / "out" / "metrics_baseline.json").exists()

    @pytest.mark.parametrize("checksum_matches", [True, False])
    def test_evaluate_checks_the_model_before_it_vectorizes_the_test_side(
        self, config_file, tmp_path, monkeypatch, checksum_matches
    ):
        assert main(["train", "--config", str(config_file), "--method", "baseline"]) == 0
        model = tmp_path / "out" / "baseline.model.json"
        if not checksum_matches:
            record = json.loads(model.read_text())
            record["vocab_checksum"] = "0" * 64
            model.write_text(json.dumps(record))
        sides = []
        real = corpus_mod.vectorize_corpus

        def counting(raw_docs, *args):
            sides.append(len(raw_docs))
            return real(raw_docs, *args)

        monkeypatch.setattr(corpus_mod, "vectorize_corpus", counting)
        assert main(["evaluate", "--config", str(config_file), "--model", str(model)]) == (0 if checksum_matches else 1)
        # 30 documents at fraction 0.5: only the 15 of the test side, and
        # only once the model has passed its checks.
        assert sides == ([15] if checksum_matches else [])

    def test_evaluate_rejects_model_of_another_mode(self, config_file, tmp_path):
        assert main(["train", "--config", str(config_file), "--method", "stc"]) == 0
        model = tmp_path / "out" / "stc.model.json"
        assert main(["evaluate", "--config", str(config_file), "--model", str(model), "--mode", "multi"]) == 1
        assert not (tmp_path / "out" / "metrics_stc.json").exists()

    @pytest.mark.parametrize("method", ["baseline", "stc"])
    def test_evaluate_rejects_model_of_other_categories(self, config_file, tmp_path, capsys, method):
        spec = synthetic.SyntheticSpec(
            n_categories=3, docs_per_class=10, sentences_per_doc=3,
            keyword_positions=(1, 2), noise_vocab_size=8, seed=4,
        )
        docs = synthetic.generate(spec)
        trained = tmp_path / "three.jsonl"
        save_jsonl(docs, trained)
        first = min(label for d in docs for label in d.labels)
        renamed = tmp_path / "renamed.jsonl"
        # The same documents and words; only the sorted category order moves.
        renamed.write_text(
            "".join(
                json.dumps({**record, "labels": ["zzz" if label == first else label for label in record["labels"]]})
                + "\n"
                for record in map(json.loads, trained.read_text().splitlines())
            ),
            encoding="utf-8",
        )
        assert main(["train", "--config", str(config_file), "--method", method, "--corpus", str(trained)]) == 0
        model = tmp_path / "out" / f"{method}.model.json"
        capsys.readouterr()

        assert main(["evaluate", "--config", str(config_file), "--model", str(model), "--corpus", str(renamed)]) == 1
        err = capsys.readouterr().err
        names = sorted({label for d in docs for label in d.labels})
        assert str(names) in err and str(sorted([*names[1:], "zzz"])) in err
        assert not (tmp_path / "out" / f"metrics_{method}.json").exists()
        assert main(["evaluate", "--config", str(config_file), "--model", str(model), "--corpus", str(trained)]) == 0

    def test_trace_rejects_a_vocabulary_that_fails_the_checksum(self, config_file, corpus_file, tmp_path, capsys):
        assert main(["train", "--config", str(config_file), "--method", "stc"]) == 0
        model = tmp_path / "out" / "stc.model.json"
        record = json.loads(model.read_text())
        term, (index, df) = next(iter(record["metadata"]["vocabulary"]["terms"].items()))
        record["metadata"]["vocabulary"]["terms"][term] = [index, df + 1]
        model.write_text(json.dumps(record))
        capsys.readouterr()

        doc_id = json.loads(corpus_file.read_text().splitlines()[0])["id"]
        assert main(["trace", "--model", str(model), "--corpus", str(corpus_file), "--doc-id", doc_id]) == 1
        out, err = capsys.readouterr()
        assert "checksum mismatch" in err and "step 1:" not in out

    def test_trace_unknown_doc_id(self, config_file, corpus_file, tmp_path):
        assert main(["train", "--config", str(config_file), "--method", "stc"]) == 0
        model = tmp_path / "out" / "stc.model.json"
        code = main(["trace", "--model", str(model), "--corpus", str(corpus_file),
                     "--doc-id", "does-not-exist"])
        assert code == 1

    @pytest.mark.parametrize("flags", [["--run", "-1"], ["--fraction", "0"], ["--fraction", "1.5"]])
    def test_train_bad_split_fails_before_corpus_loads(self, config_file, monkeypatch, flags):
        loads = []
        monkeypatch.setattr("stc.cli._load_corpus", lambda path: loads.append(path))
        assert main(["train", "--config", str(config_file), "--method", "baseline", *flags]) == 1
        assert loads == []

    @pytest.mark.parametrize("flags", [["--run", "-1"], ["--fraction", "0"], ["--fraction", "1.5"]])
    def test_evaluate_bad_split_fails_before_corpus_loads(self, config_file, tmp_path, monkeypatch, flags):
        assert main(["train", "--config", str(config_file), "--method", "baseline"]) == 0
        model = tmp_path / "out" / "baseline.model.json"
        loads = []
        monkeypatch.setattr("stc.cli._load_corpus", lambda path: loads.append(path))
        assert main(["evaluate", "--config", str(config_file), "--model", str(model), *flags]) == 1
        assert loads == []
        assert not (tmp_path / "out" / "metrics_baseline.json").exists()

    @pytest.mark.parametrize("method", ["baseline", "stc"])
    def test_train_rejects_a_multi_labelled_document_in_mono_mode(
        self, config_file, corpus_file, tmp_path, capsys, split_calls, method
    ):
        bad = _relabelled(corpus_file, tmp_path, ["bravo", "delta"])
        assert main(["train", "--config", str(config_file), "--method", method, "--corpus", str(bad)]) == 1
        assert "document 'm1' has 2 labels in mono-label mode" in capsys.readouterr().err
        assert split_calls == []
        assert not (tmp_path / "out").exists()

    def test_evaluate_rejects_a_multi_labelled_document_in_mono_mode(
        self, config_file, corpus_file, tmp_path, capsys, split_calls
    ):
        assert main(["train", "--config", str(config_file), "--method", "baseline"]) == 0
        split_calls.clear()
        bad = _relabelled(corpus_file, tmp_path, ["bravo", "delta"])
        model = tmp_path / "out" / "baseline.model.json"
        assert main(["evaluate", "--config", str(config_file), "--model", str(model), "--corpus", str(bad)]) == 1
        assert "evaluate: " in (err := capsys.readouterr().err) and "document 'm1' has 2 labels" in err
        assert split_calls == []
        assert not (tmp_path / "out" / "metrics_baseline.json").exists()

    @pytest.mark.parametrize(
        "labels, message",
        [(["bravo", "delta"], "document 'm1' has 2 labels in mono-label mode"),
         (["zzz"], "document 'm1' has unknown category 'zzz'")],
    )
    def test_trace_rejects_a_document_the_model_cannot_score(
        self, config_file, corpus_file, tmp_path, capsys, monkeypatch, labels, message
    ):
        assert main(["train", "--config", str(config_file), "--method", "stc"]) == 0
        model = tmp_path / "out" / "stc.model.json"
        assert json.loads(model.read_text())["categories"] == ["bravo", "delta"]
        bad = _relabelled(corpus_file, tmp_path, labels)
        vectorized = []
        monkeypatch.setattr(corpus_mod, "vectorize_corpus", lambda *args: vectorized.append(args))
        capsys.readouterr()
        assert main(["trace", "--model", str(model), "--corpus", str(bad), "--doc-id", "m1"]) == 1
        out, err = capsys.readouterr()
        assert message in err and err.startswith("trace: ") and out == ""
        assert vectorized == []

    def test_evaluate_rejects_a_split_without_test_documents(self, config_file, tmp_path, capsys):
        # ceil(0.97 * 30) = 30: the model trains on every document.
        assert main(["train", "--config", str(config_file), "--method", "baseline", "--fraction", "0.97"]) == 0
        model = tmp_path / "out" / "baseline.model.json"
        assert main(["evaluate", "--config", str(config_file), "--model", str(model)]) == 1
        assert "evaluate: the split at fraction 0.97, run 0 leaves no test document" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics_baseline.json").exists()

    @pytest.mark.parametrize("fault", ["missing", "not JSON", "no weights", "no mode"])
    @pytest.mark.parametrize("command", ["evaluate", "trace"])
    def test_a_missing_or_malformed_model_file_is_a_validation_error(
        self, config_file, corpus_file, tmp_path, capsys, command, fault
    ):
        model = tmp_path / "model.json"
        if fault == "not JSON":
            model.write_text("{not json", encoding="utf-8")
        elif fault in ("no weights", "no mode"):
            assert main(["train", "--config", str(config_file), "--method", "stc"]) == 0
            record = json.loads((tmp_path / "out" / "stc.model.json").read_text())
            del record[fault.split()[1]]
            model.write_text(json.dumps(record), encoding="utf-8")
        capsys.readouterr()
        argv = {
            "evaluate": ["evaluate", "--config", str(config_file), "--model", str(model)],
            "trace": ["trace", "--model", str(model), "--corpus", str(corpus_file), "--doc-id", "any"],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: model file {model}: ")
        reasons = {"missing": "No such file", "not JSON": "not JSON", "no weights": "missing field 'weights'",
                   "no mode": "missing field 'mode'"}
        assert reasons[fault] in err

    def test_invalid_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["train", "--config", str(bad), "--method", "stc"]) == 1


class TestExperimentCommand:
    def test_experiment_writes_reports(self, config_file, tmp_path, capsys):
        assert main(["experiment", "--config", str(config_file)]) == 0
        out_dir = tmp_path / "out"
        for name in ("cells.csv", "aggregate.csv", "report.json", "reading_histogram.csv"):
            assert (out_dir / name).exists(), name
        histogram = (out_dir / "reading_histogram.csv").read_text().splitlines()
        assert histogram[0] == "bin_lo,bin_hi,count"

    def test_experiment_rerun_byte_identical(self, config_file, tmp_path):
        assert main(["experiment", "--config", str(config_file)]) == 0
        out_dir = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.suffix in (".csv", ".json")}
        assert main(["experiment", "--config", str(config_file)]) == 0
        second = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.suffix in (".csv", ".json")}
        assert first == second

    @pytest.mark.parametrize(
        "text, message",
        [('{"id": "e1", "labels": ["a"], "sentences": [""]}\n', "contains no documents"),
         ('{"id": "e1", "labels": ["a"]\n', "line 1: invalid JSON")],
    )
    def test_experiment_rejects_an_empty_or_malformed_corpus(
        self, config_file, tmp_path, capsys, split_calls, text, message
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text, encoding="utf-8")
        assert main(["experiment", "--config", str(config_file), "--corpus", str(bad)]) == 1
        assert message in capsys.readouterr().err
        assert split_calls == []
        assert not (tmp_path / "out").exists()

    def test_experiment_rejects_a_multi_labelled_document_in_mono_mode(
        self, config_file, corpus_file, tmp_path, capsys, split_calls
    ):
        bad = _relabelled(corpus_file, tmp_path, ["bravo", "delta"])
        assert main(["experiment", "--config", str(config_file), "--corpus", str(bad)]) == 1
        assert "experiment: document 'm1' has 2 labels in mono-label mode" in capsys.readouterr().err
        assert split_calls == []
        assert not (tmp_path / "out").exists()

    def test_a_fraction_without_test_documents_gives_a_partial_report_and_exit_3(self, tmp_path, capsys):
        spec = synthetic.SyntheticSpec(
            n_categories=2, docs_per_class=9, sentences_per_doc=3,
            keyword_positions=(1, 2), noise_vocab_size=8, seed=4,
        )
        save_jsonl(synthetic.generate(spec), tmp_path / "small.jsonl")
        config = {
            "corpus": "small.jsonl", "mode": "mono", "seed": 5, "output_dir": "out",
            "fractions": [0.5, 0.95], "n_runs": 2,
            "stc": {"n_states": 60, "iterations": 2, "epochs": 3},
            "baseline": {"epochs": 3, "lambda_grid": [1e-4, 1e-3]},
            "histogram": {"fraction": 0.5, "bins": 5},
        }
        (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
        assert main(["experiment", "--config", str(tmp_path / "run.json")]) == 3
        assert "experiment finished with 6 failed cell(s)" in capsys.readouterr().err
        out_dir = tmp_path / "out"
        report = json.loads((out_dir / "report.json").read_text())
        assert report["complete"] is False
        assert [c["error"] for c in report["cells"] if c["fraction"] == 0.95] == ["no predictions"] * 6
        assert {a["fraction"] for a in report["aggregates"]} == {0.5}
        assert sum(count for _, _, count in report["histogram"]) == 2 * 9
        assert (out_dir / "cells.csv").read_text().count(",no predictions\n") == 6
