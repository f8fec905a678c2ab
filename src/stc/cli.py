"""Command-line entry point.

Commands: ``convert`` (public corpus layouts -> canonical JSONL),
``train`` (fit one model on one split), ``evaluate`` (score a saved model
on a split's test side), ``experiment`` (full fraction x run grid for
both methods), and ``trace`` (print one greedy reading episode).

Exit codes: 0 success, 1 validation error, 2 runtime failure, 3 partial
experiment.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import evaluation, features, learn
from .baseline import BaselineModel, train_baseline
from .config import ConfigError, RunConfig, load_config
from .corpus import CategorySet, Vocabulary
from .mdp import initial_state, prf1, walk
from .policy import Greedy, LinearQ, action_scores, load_model, policy_callable, q_value, save_model

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3


class InputError(ValueError):
    """Input that a command cannot use: ``main`` reports it under the
    command's name and exits 1, before any compute."""


def _eprint(*args) -> None:
    print(*args, file=sys.stderr)


def _checked(check, *args):
    """``check(*args)``, a ``ValueError`` from it raised as an ``InputError``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _load_corpus(path, mode: str | None = None) -> list:
    """The corpus's documents. A malformed or empty corpus is an input
    error, and so, with a task mode, is a document it cannot score; both
    are raised before any split is made."""
    docs, dropped = _checked(corpus_mod.load_jsonl, path)
    if dropped:
        _eprint(f"warning: dropped {dropped} empty document(s) from {path}")
    if not docs:
        raise InputError(f"corpus {path} contains no documents")
    if mode is not None:
        _checked(corpus_mod.check_labels, docs, mode)
    return docs


def cmd_convert(args) -> int:
    if args.layout == "cardoso":
        if not args.train or not args.test:
            raise InputError("layout 'cardoso' requires --train and --test")
        for path in (args.train, args.test):
            if not Path(path).exists():
                raise InputError(f"input file not found: {path}")
        convert, inputs = corpus_mod.convert_cardoso, (args.train, args.test)
    else:
        if not args.root:
            raise InputError("layout 'dirs-by-class' requires --root")
        if not Path(args.root).is_dir():
            raise InputError(f"input directory not found: {args.root}")
        convert, inputs = corpus_mod.convert_dirs_by_class, (args.root,)
    docs = _checked(convert, *inputs)  # malformed or empty inputs are validation failures
    if not docs:
        raise InputError("no documents found in the input")
    corpus_mod.save_jsonl(docs, args.out)
    stats = corpus_mod.corpus_stats(docs)
    print(
        f"wrote {stats['n_docs']} documents, {stats['n_categories']} categories, "
        f"mean {stats['mean_sentences_per_doc']:.2f} sentences/doc -> {args.out}"
    )
    return EXIT_OK


def _check_split(fraction: float, run: int) -> None:
    """Reject a split choice no corpus can satisfy, before any loading."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"fraction must lie strictly between 0 and 1, got {fraction}")
    if run < 0:
        raise ConfigError(f"run must be a non-negative split index, got {run}")


def _split(cfg: RunConfig, fraction: float, run: int):
    """The corpus, its categories and the split of (fraction, run)."""
    raw_docs = _load_corpus(cfg.corpus, cfg.plan.mode)
    categories = CategorySet.from_documents(raw_docs)
    return raw_docs, categories, corpus_mod.make_splits(raw_docs, fraction, run + 1, cfg.plan.seed)[run]


def cmd_train(args) -> int:
    cfg = load_config(args.config, _config_overrides(args))
    plan = cfg.plan
    fraction = args.fraction if args.fraction is not None else plan.fractions[0]
    run = args.run
    _check_split(fraction, run)
    raw_docs, categories, split = _split(cfg, fraction, run)
    vocab, train_docs, _ = corpus_mod.prepare_split(raw_docs, categories, split, plan.mode)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    metadata = {
        "corpus": str(cfg.corpus),
        "fraction": fraction,
        "run": run,
        "seed": plan.seed,
        "vocabulary": vocab.to_record(),
    }
    if args.method == "stc":
        result = learn.policy_iteration(train_docs, plan.mode, plan.rollout)
        model_path = cfg.output_dir / "stc.model.json"
        save_model(
            model_path,
            kind="policy",
            mode=plan.mode,
            categories=categories.names,
            vocab_checksum=vocab.checksum(),
            weights={"theta": result.q.theta},
            metadata=metadata,
        )
        telemetry_path = cfg.output_dir / "telemetry.jsonl"
        with open(telemetry_path, "w", encoding="utf-8") as fh:
            for record in result.telemetry:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"wrote {model_path} and {telemetry_path} ({len(result.telemetry)} iteration(s))")
    else:
        model = train_baseline(train_docs, plan.baseline, plan.mode)
        model_path = cfg.output_dir / "baseline.model.json"
        save_model(
            model_path,
            kind="baseline",
            mode=plan.mode,
            categories=categories.names,
            vocab_checksum=vocab.checksum(),
            weights={f"w_{k}": model.weights[k] for k in range(model.weights.shape[0])},
            metadata=metadata,
        )
        print(f"wrote {model_path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, _config_overrides(args))
    mode = cfg.plan.mode
    record = _checked(load_model, args.model)
    if record["mode"] != mode:
        raise InputError(f"the model was trained for mode {record['mode']!r}, the config asks for {mode!r}")
    fraction = args.fraction if args.fraction is not None else record["metadata"]["fraction"]
    run = args.run if args.run is not None else record["metadata"]["run"]
    _check_split(fraction, run)
    raw_docs, categories, split = _split(cfg, fraction, run)
    train_raw, test_raw = corpus_mod.split_sides(raw_docs, split)
    if not test_raw:
        raise InputError(f"the split at fraction {fraction}, run {run} leaves no test document")
    vocab = corpus_mod.build_vocabulary(train_raw)
    if list(categories.names) != record["categories"]:
        raise InputError(
            f"the model was trained for categories {record['categories']}, the corpus has {list(categories.names)}"
        )
    if vocab.checksum() != record["vocab_checksum"]:
        raise InputError("vocabulary checksum mismatch: the model was trained on a different split or corpus")
    test_docs = corpus_mod.vectorize_corpus(test_raw, vocab, categories, mode)
    if record["kind"] == "policy":
        method, model = "stc", Greedy(_policy_q(record, vocab))
    else:
        import numpy as np

        weights = np.stack([record["weights"][f"w_{k}"] for k in range(len(categories))])
        method, model = "baseline", BaselineModel(weights=weights, mode=record["mode"])
    gold = evaluation.label_matrix([d.y for d in test_docs], len(categories))
    scores, _ = evaluation.score(model, test_docs, mode, gold)
    metrics = {"method": method, "fraction": fraction, "run": run, **scores}
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = cfg.output_dir / f"metrics_{method}.json"
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(json.dumps(metrics, sort_keys=True))
    print(f"wrote {metrics_path}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg = load_config(args.config, _config_overrides(args))
    raw_docs = _load_corpus(cfg.corpus, cfg.plan.mode)
    report = evaluation.run_experiment(raw_docs, cfg.plan)
    written = evaluation.write_report_files(report, cfg.output_dir)
    for name, path in sorted(written.items()):
        print(f"wrote {name}: {path}")
    if not report.complete:
        failed = [c for c in report.cells if c.error is not None]
        _eprint(f"experiment finished with {len(failed)} failed cell(s)")
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_trace(args) -> int:
    record = _checked(load_model, args.model)
    if record["kind"] != "policy":
        raise InputError("only reading-agent models have episode traces")
    vocab = Vocabulary.from_record(record["metadata"]["vocabulary"])
    if vocab.checksum() != record["vocab_checksum"]:
        raise InputError("vocabulary checksum mismatch: the model's stored vocabulary is not the one it was trained on")
    raw_docs = _load_corpus(args.corpus)
    matches = [d for d in raw_docs if d.id == args.doc_id]
    if not matches:
        raise InputError(f"document id {args.doc_id!r} not found in {args.corpus}")
    categories = CategorySet(tuple(record["categories"]))
    mode = record["mode"]
    _checked(corpus_mod.check_labels, matches, mode, categories)
    doc = corpus_mod.vectorize_corpus(matches, vocab, categories, mode)[0]
    q = _policy_q(record, vocab)

    print(f"doc {doc.id}: {doc.n_sentences} sentence(s), labels: "
          f"{', '.join(n for n, v in zip(categories.names, doc.y) if v)}")
    states, actions = walk(initial_state(doc), policy_callable(Greedy(q), mode), mode)
    for step, (state, action) in enumerate(zip(states, actions), start=1):
        label = str(action)
        if action.kind == "classify":
            label = f"classify:{categories.names[action.category]}"
        print(f"step {step}: p={state.p} action={label} q={q_value(q, state, action):.6f} "
              f"margin={_margin(q, state, mode)}")
    final = states[-1]
    reward = prf1(doc.y, final.assigned)[2]
    print(f"reward: {reward:.6f}  read {final.p}/{doc.n_sentences} sentence(s)")
    return EXIT_OK


def _policy_q(record: dict, vocab: Vocabulary) -> LinearQ:
    """The scorer of a saved reading-agent model, over its vocabulary."""
    n_categories = len(record["categories"])
    return LinearQ(record["weights"]["theta"], n_categories, features.state_dim(len(vocab), n_categories))


# Greedy decisions whose best two scores are this close can flip when only
# the summation order of a score changes.
NEAR_TIE = 1e-12


def _margin(q: LinearQ, state, mode: str) -> str:
    """The best legal score minus the runner-up, from the scores the greedy
    policy reads; "forced" when one action is legal."""
    scores = sorted((score for _, score in action_scores(q, state, mode)), reverse=True)
    if len(scores) == 1:
        return "forced"
    margin = scores[0] - scores[1]
    return f"{margin:.3e}" + (" near-tie" if margin <= NEAR_TIE else "")


# The config keys a flag can override; each flag's argparse dest is its key.
_CONFIG_FLAGS = ("seed", "n_runs", "workers", "mode", "output_dir", "corpus")


def _config_overrides(args) -> dict:
    return {key: getattr(args, key) for key in _CONFIG_FLAGS}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--n-runs", dest="n_runs", type=int, help="override the run count")
    parser.add_argument("--workers", type=int, help="override the worker count")
    parser.add_argument("--mode", choices=["mono", "multi"], help="override the task mode")
    parser.add_argument("--output-dir", dest="output_dir", help="override the output directory")
    parser.add_argument("--corpus", help="override the corpus path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stc",
        description="Sequential text classification: train, evaluate, and inspect reading agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", help="convert a public corpus layout to canonical JSONL")
    p_convert.add_argument("--layout", required=True, choices=["cardoso", "dirs-by-class"])
    p_convert.add_argument("--train", help="train file (cardoso layout)")
    p_convert.add_argument("--test", help="test file (cardoso layout)")
    p_convert.add_argument("--root", help="root directory (dirs-by-class layout)")
    p_convert.add_argument("--out", required=True, help="output canonical corpus path")
    p_convert.set_defaults(func=cmd_convert)

    p_train = sub.add_parser("train", help="train one model on one split")
    _add_config_flags(p_train)
    p_train.add_argument("--method", required=True, choices=["stc", "baseline"])
    p_train.add_argument("--fraction", type=float, help="training fraction (default: first in config)")
    p_train.add_argument("--run", type=int, default=0, help="split run index (default 0)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved model on a split's test side")
    _add_config_flags(p_eval)
    p_eval.add_argument("--model", required=True, help="model file written by train")
    p_eval.add_argument("--fraction", type=float, help="training fraction (default: from the model)")
    p_eval.add_argument("--run", type=int, help="split run index (default: from the model)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_exp = sub.add_parser("experiment", help="full fraction x run grid for both methods")
    _add_config_flags(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_trace = sub.add_parser("trace", help="print one greedy reading episode")
    p_trace.add_argument("--model", required=True, help="reading-agent model file")
    p_trace.add_argument("--corpus", required=True, help="canonical corpus file")
    p_trace.add_argument("--doc-id", dest="doc_id", required=True, help="document id to trace")
    p_trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        _eprint(f"{args.command}: {exc}")
        return EXIT_VALIDATION
    except ConfigError as exc:
        _eprint(f"configuration error: {exc}")
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        _eprint(f"error: {exc}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
