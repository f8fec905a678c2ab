"""Print sha256 digests of the program's seeded outputs, one JSON line per seed.

    python3 tools/identity.py --seeds 1-3 [--checkout DIR] > digests.txt

Imports ``stc`` from the checkout's ``src`` and the benchmark workloads
from its ``perfbench/workload.py`` (read only; nothing there is
changed). Running it on two checkouts and diffing the outputs shows
whether a change kept every output bit. Per seed it digests:

- ``train-mono``: the benchmark workload's fitted theta bytes, its
  per-round telemetry and its test-side episode logs;
- ``train-mono-r3``: the same three for ``train-mono``'s split and
  settings with three rollouts per state, so the order in which several
  random rollouts of one state draw is held to its bits;
- ``multi``: the same three for a multi-label ``policy_iteration`` on
  acceptance criterion 8's corpus and split, with the library's default
  rollout settings and rollout seed = the seed;
- ``multi-r3``: the same three for ``multi``'s split and settings with
  three rollouts per state, so the draw order of several random
  multi-label rollouts of one state is held to its bits;
- ``grid-r8like``: the four report files of the benchmark's
  ``stc experiment`` workload;
- ``grid-multi``: the four report files of ``stc experiment`` in
  multi-label mode on criterion 8's corpus, with a small plan (two
  fractions x two runs, 300 states x 2 iterations, the default baseline
  grid), so the multi-label baseline threshold and F1 cells are digested;
- ``grid-partial``: the four report files and the exit code of a partial
  ``stc experiment``: 18 documents at fractions 0.5 and 0.95, where
  every 0.95 split trains on all of them and leaves no test document, so
  the failed cells and their report bytes are digested too;
- ``vectors``: every sentence vector and document vector of
  ``train-mono``'s split and of ``grid-r8like``'s first split (its
  smallest fraction, run 0), training side then test side, as indices
  and values bytes in document order, so the vectors themselves are
  held to their bytes and not only through the reports;
- ``cli``: the files that ``stc train --method stc`` (model, telemetry),
  ``stc train --method baseline`` (model) and ``stc evaluate`` of each
  model (metrics) write, and the stdout of one ``stc trace``, for a
  config that sets only the required keys plus ``stc.n_states`` and
  ``stc.iterations``, so every other setting takes its default. It runs
  in the run directory with relative paths, so the corpus path each
  model records does not depend on where the directory is.

BLAS threads are pinned to 1, as in the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

CRITERION_8_SPLIT_SEED = 42


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _learner_digests(result, logs) -> dict[str, str]:
    return {
        "theta": _sha(result.q.theta.tobytes()),
        "telemetry": _sha(json.dumps(result.telemetry, sort_keys=True).encode()),
        "episodes": _sha(json.dumps([log.to_record() for log in logs], sort_keys=True).encode()),
    }


def _train_mono(workload, seed: int, run_dir: Path) -> dict[str, str]:
    train = workload.TrainWorkload()
    train.setup(seed, run_dir)
    out = train.run()
    return _learner_digests(out["result"], out["logs"])


def _train_mono_r3(workload, seed: int, run_dir: Path) -> dict[str, str]:
    from stc import corpus, evaluation, learn, policy

    train = workload.TrainWorkload()
    train.setup(seed, run_dir)
    split = corpus.make_splits(train.raw, train.fraction, 1, seed)[0]
    by_id = {d.id: d for d in train.raw}
    train_raw = [by_id[i] for i in split.train_ids]
    vocab = corpus.build_vocabulary(train_raw)
    train_docs = corpus.vectorize_corpus(train_raw, vocab, train.categories, "mono")
    test_docs = corpus.vectorize_corpus([by_id[i] for i in split.test_ids], vocab, train.categories, "mono")
    cfg = learn.RolloutConfig(n_states=train.n_states, rollouts_per_state=3, iterations=train.iterations, seed=seed)
    result = learn.policy_iteration(train_docs, "mono", cfg)
    _, logs = evaluation.evaluate_policy(policy.Greedy(result.q), test_docs, "mono")
    return _learner_digests(result, logs)


def _split_vectors(raw, fraction: float, seed: int, mode: str) -> str:
    """One digest of every vector of the first split at ``fraction``."""
    from stc import corpus

    split = corpus.make_splits(raw, fraction, 1, seed)[0]
    _, train, test = corpus.prepare_split(raw, corpus.CategorySet.from_documents(raw), split, mode)
    h = hashlib.sha256()
    for doc in train + test:
        for vector in [*doc.sentence_vectors, doc.global_vector]:
            h.update(vector.indices.tobytes())
            h.update(b"|")
            h.update(vector.values.tobytes())
            h.update(b"\n")
    return h.hexdigest()


def _vectors(workload, seed: int, run_dir: Path) -> dict[str, str]:
    digests = {}
    for name, spec, fraction, mode in (
        ("train-mono", workload.TrainWorkload.spec, workload.TrainWorkload.fraction, "mono"),
        ("grid-r8like", workload.GridWorkload.spec, workload.GridWorkload.config["fractions"][0], workload.GridWorkload.config["mode"]),
    ):
        raw, _ = workload._load_inputs(spec, seed, run_dir / name)
        digests[name] = _split_vectors(raw, fraction, seed, mode)
    return digests


def _criterion_8_corpus():
    from stc import synthetic

    spec = synthetic.SyntheticSpec(
        n_categories=4,
        docs_per_class=100,
        sentences_per_doc=6,
        keyword_positions=(1, 2, 3, 4, 5, 6),
        labels_per_doc=(3, 4),
        noise_vocab_size=40,
        seed=11,
    )
    return synthetic.generate(spec)


def _multi(seed: int, rollouts_per_state: int = 1) -> dict[str, str]:
    from stc import corpus, evaluation, learn, policy

    raw = _criterion_8_corpus()
    categories = corpus.CategorySet.from_documents(raw)
    split = corpus.make_splits(raw, 0.5, 1, CRITERION_8_SPLIT_SEED)[0]
    by_id = {d.id: d for d in raw}
    train_raw = [by_id[i] for i in split.train_ids]
    vocab = corpus.build_vocabulary(train_raw)
    train = corpus.vectorize_corpus(train_raw, vocab, categories, "multi")
    test = corpus.vectorize_corpus([by_id[i] for i in split.test_ids], vocab, categories, "multi")
    cfg = learn.RolloutConfig(rollouts_per_state=rollouts_per_state, seed=seed)
    result = learn.policy_iteration(train, "multi", cfg)
    _, logs = evaluation.evaluate_policy(policy.Greedy(result.q), test, "multi")
    return _learner_digests(result, logs)


def _grid(workload, seed: int, run_dir: Path) -> dict[str, str]:
    grid = workload.GridWorkload()
    grid.setup(seed, run_dir)
    with contextlib.redirect_stdout(sys.stderr):  # keep stdout to the digest lines
        out = grid.run()
    if out["exit"] != 0:
        raise SystemExit(f"identity: stc experiment failed at seed {seed}")
    return {name: _sha((grid.out_dir / name).read_bytes()) for name in grid.report_files}


def _grid_multi(seed: int, run_dir: Path) -> dict[str, str]:
    from stc import cli, corpus

    config = {
        "corpus": "corpus.jsonl",
        "mode": "multi",
        "seed": seed,
        "output_dir": "out",
        "fractions": [0.3, 0.5],
        "n_runs": 2,
        "stc": {"n_states": 300, "iterations": 2},
        "histogram": {"fraction": 0.5, "bins": 5},
    }
    names = ("cells.csv", "aggregate.csv", "report.json", "reading_histogram.csv")
    with contextlib.chdir(run_dir):
        corpus.save_jsonl(_criterion_8_corpus(), "corpus.jsonl")
        Path("run.json").write_text(json.dumps(config), encoding="utf-8")
        with contextlib.redirect_stdout(sys.stderr):
            if cli.main(["experiment", "--config", "run.json"]) != 0:
                raise SystemExit(f"identity: multi-label stc experiment failed at seed {seed}")
        return {name: _sha(Path("out", name).read_bytes()) for name in names}


def _grid_partial(seed: int, run_dir: Path) -> dict[str, str]:
    from stc import cli, corpus, synthetic

    spec = synthetic.SyntheticSpec(
        n_categories=2, docs_per_class=9, sentences_per_doc=3, keyword_positions=(1, 2), noise_vocab_size=8, seed=4
    )
    config = {
        "corpus": "corpus.jsonl",
        "mode": "mono",
        "seed": seed,
        "output_dir": "out",
        "fractions": [0.5, 0.95],
        "n_runs": 2,
        "stc": {"n_states": 60, "iterations": 2, "lambda_grid": [1e-3, 1e-2]},
        "baseline": {"lambda_grid": [1e-4, 1e-3]},
        "histogram": {"fraction": 0.5, "bins": 5},
    }
    names = ("cells.csv", "aggregate.csv", "report.json", "reading_histogram.csv")
    with contextlib.chdir(run_dir):
        corpus.save_jsonl(synthetic.generate(spec), "corpus.jsonl")
        Path("run.json").write_text(json.dumps(config), encoding="utf-8")
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["experiment", "--config", "run.json"])
        return {"exit": str(code), **{name: _sha(Path("out", name).read_bytes()) for name in names}}


def _cli(seed: int, run_dir: Path) -> dict[str, str]:
    from stc import cli, corpus, synthetic

    spec = synthetic.SyntheticSpec(
        n_categories=4, docs_per_class=200, sentences_per_doc=6, keyword_positions=(1, 2, 3), noise_vocab_size=40, seed=5
    )
    raw = synthetic.generate(spec)
    config = {
        "corpus": "corpus.jsonl",
        "mode": "mono",
        "seed": seed,
        "output_dir": "out",
        "stc": {"n_states": 300, "iterations": 2},
    }
    with contextlib.chdir(run_dir):
        corpus.save_jsonl(raw, "corpus.jsonl")
        Path("run.json").write_text(json.dumps(config), encoding="utf-8")
        for argv in (
            ["train", "--config", "run.json", "--method", "stc"],
            ["train", "--config", "run.json", "--method", "baseline"],
            ["evaluate", "--config", "run.json", "--model", "out/stc.model.json"],
            ["evaluate", "--config", "run.json", "--model", "out/baseline.model.json"],
            ["trace", "--model", "out/stc.model.json", "--corpus", "corpus.jsonl", "--doc-id", raw[0].id],
        ):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                if cli.main(argv) != 0:
                    raise SystemExit(f"identity: stc {' '.join(argv)} failed at seed {seed}")
        names = ("stc.model.json", "telemetry.jsonl", "baseline.model.json", "metrics_stc.json", "metrics_baseline.json")
        digests = {name: _sha(Path("out", name).read_bytes()) for name in names}
    return {**digests, "trace": _sha(stdout.getvalue().encode())}  # the last command's stdout


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-3", help="an inclusive range, e.g. 1-3, or one seed")
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workload

    for seed in _seeds(args.seeds):
        with tempfile.TemporaryDirectory() as tmp:
            names = (
                "mono", "mono-r3", "grid", "grid-multi", "cli", "grid-partial", "vectors/train-mono", "vectors/grid-r8like"
            )
            for name in names:
                Path(tmp, name).mkdir(parents=True)
            mono_dir, mono_r3_dir, grid_dir, multi_dir, cli_dir, partial_dir = (Path(tmp, name) for name in names[:6])
            record = {
                "seed": seed,
                "train-mono": _train_mono(workload, seed, mono_dir),
                "train-mono-r3": _train_mono_r3(workload, seed, mono_r3_dir),
                "multi": _multi(seed),
                "multi-r3": _multi(seed, rollouts_per_state=3),
                "grid-r8like": _grid(workload, seed, grid_dir),
                "grid-multi": _grid_multi(seed, multi_dir),
                "grid-partial": _grid_partial(seed, partial_dir),
                "cli": _cli(seed, cli_dir),
                "vectors": _vectors(workload, seed, Path(tmp, "vectors")),
            }
        print(json.dumps(record, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
