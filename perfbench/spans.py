"""Span tracing of the calls between the modules of ``stc``.

The tracer wraps public functions of the library from outside: it swaps
the function object for a timing wrapper in every ``stc`` module that
holds a reference to it, so calls across a module boundary and calls
through a module's own globals both pass through the wrapper. Nothing in
``stc`` is edited, and ``uninstall`` puts the original objects back.

Each call records one span (name, start, end, parent) in column arrays,
plus the time its child spans covered, so self time is exact within a
process. Fork-pool workers inherit the installed wrappers; each worker
writes its spans to a file when a split job ends and the parent merges
them. Counters that turn spans into per-layer figures (tokens, distinct
rollout keys, SGD updates, ...) are taken from the wrapped calls'
arguments and results, after the span has closed.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import resource
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
from stc import evaluation

# (module, function) pairs wrapped in a traced round. The first part of
# each span name is the layer the time is charged to.
TRACED = (
    ("porter", "porter_stem"),
    ("preprocess", "preprocess_sentence"),
    ("corpus", "load_jsonl"),
    ("corpus", "save_jsonl"),
    ("corpus", "make_splits"),
    ("corpus", "build_vocabulary"),
    ("corpus", "vectorize_corpus"),
    ("mdp", "available_actions"),
    ("mdp", "transition"),
    ("mdp", "run_episode"),
    ("features", "phi_state"),
    ("features", "phi_state_action"),
    ("policy", "select_action"),
    ("policy", "train_linear"),
    ("policy", "train_multiclass_ovr"),
    ("learn", "policy_iteration"),
    ("learn", "build_training_set"),
    ("learn", "sample_state"),
    ("learn", "rollout_return"),
    ("learn", "mean_episode_reward"),
    ("baseline", "train_baseline"),
    ("baseline", "predict_baseline"),
    ("evaluation", "evaluate_policy"),
    ("evaluation", "micro_f1"),
    ("evaluation", "macro_f1"),
    ("evaluation", "reading_size"),
    ("evaluation", "run_experiment"),
    ("evaluation", "_run_split_job"),
    ("evaluation", "write_report_files"),
    ("cli", "main"),
)

LAYERS = ("porter", "preprocess", "corpus", "mdp", "features", "policy", "learn", "baseline", "evaluation", "cli")

SPLIT_JOB = "evaluation._run_split_job"


def _stc_modules():
    return [m for name, m in sorted(sys.modules.items()) if m is not None and (name == "stc" or name.startswith("stc."))]


def _swap(original, replacement) -> None:
    """Point every ``stc`` module attribute bound to ``original`` at ``replacement``."""
    for module in _stc_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class RssProbe:
    """Records each fork-pool worker's peak RSS when a split job ends.

    The worker writes ``rss-<pid>`` into ``directory``; the parent sums
    the files of one round and removes them.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def install(self) -> None:
        original = evaluation._run_split_job
        directory = self.directory

        @functools.wraps(original)
        def job(args):
            try:
                return original(args)
            finally:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                (directory / f"rss-{os.getpid()}").write_text(str(peak_kb))

        _swap(original, job)

    def collect_mb(self) -> float:
        """Sum of the peak RSS of the workers seen since the last call."""
        total_kb = 0
        for path in sorted(self.directory.glob("rss-*")):
            total_kb += int(path.read_text())
            path.unlink()
        return total_kb / 1024.0


class Tracer:
    def __init__(self, spool: Path):
        self.spool = Path(spool)  # where workers leave their spans
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.originals: dict[str, object] = {}
        self.installed = False
        self.foreign_parent = -1  # parent-process span a worker's jobs belong to
        self.spool_owner = os.getpid()
        self._clear()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- span recording ------------------------------------------------------

    def _clear(self) -> None:
        self.name_col = array("i")
        self.parent_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.child_col = array("q")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.keys: dict[str, set] = {"stems": set(), "states": set(), "rollouts": set()}
        self.training_round = 0

    def _after_fork(self) -> None:
        if not self.installed:
            return
        self.foreign_parent = self.stack[-1] if self.stack else -1
        self._clear()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name: str, fn, after):
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.start_col)
            stack = tracer.stack  # looked up per call: _clear() replaces it
            tracer.name_col.append(nid)
            tracer.parent_col.append(stack[-1] if stack else -1)
            tracer.child_col.append(0)
            tracer.end_col.append(0)
            stack.append(index)
            tracer.start_col.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.end_col[index] = end
                stack.pop()
                if stack:
                    tracer.child_col[stack[-1]] += end - tracer.start_col[index]
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module_name, attr in TRACED:
            module = importlib.import_module(f"stc.{module_name}")
            name = f"{module_name}.{attr}"
            original = self.originals[name] = getattr(module, attr)
            wrapper = self._wrap(name, original, _AFTER.get(name))
            _swap(original, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for module_name, attr in TRACED:
            module = importlib.import_module(f"stc.{module_name}")
            _swap(getattr(module, attr), self.originals[f"{module_name}.{attr}"])
        self.installed = False

    # -- collection ----------------------------------------------------------

    def take(self) -> dict:
        """This process's spans and counters since the last take, then clear.

        Called only between rounds or jobs, when no span is open.
        """
        taken = {
            "pid": os.getpid(),
            "names": list(self.names),
            "foreign_parent": self.foreign_parent,
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start_col, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end_col, dtype=np.int64).copy(),
            "child": np.frombuffer(self.child_col, dtype=np.int64).copy(),
            "counters": dict(self.counters),
            "distinct": {k: len(v) for k, v in self.keys.items()},
            "stems": set(self.keys["stems"]),
        }
        self._clear()
        return taken

    def spool_worker_job(self) -> None:
        taken = self.take()
        path = self.spool / f"spans-{taken['pid']}-{time.perf_counter_ns()}.pkl"
        with open(path, "wb") as fh:
            pickle.dump(taken, fh)

    def collect_workers(self) -> list[dict]:
        parts = []
        for path in sorted(self.spool.glob("spans-*.pkl")):
            with open(path, "rb") as fh:
                parts.append(pickle.load(fh))  # written by this benchmark's own workers
            path.unlink()
        return parts


# -- counters taken from the wrapped calls -------------------------------------


def _after_stem(tracer, args, kwargs, result):
    tracer.keys["stems"].add(args[0])


def _after_preprocess(tracer, args, kwargs, result):
    tracer.counters["tokens"] += len(result)


def _after_vocabulary(tracer, args, kwargs, result):
    tracer.counters["vocab_terms"] += len(result)


def _after_vectorize(tracer, args, kwargs, result):
    tracer.counters["docs_vectorized"] += len(result)


def _state_key(state):
    return (state.doc.id, state.p, state.assigned)


def _after_training_set(tracer, args, kwargs, result):
    tracer.training_round += 1
    tracer.counters["examples"] += len(result.examples)
    tracer.counters["states_planned"] += result.n_states
    tracer.counters["states_skipped"] += result.n_skipped_states


def _after_sample_state(tracer, args, kwargs, result):
    tracer.keys["states"].add((tracer.training_round, _state_key(result)))


def _after_rollout(tracer, args, kwargs, result):
    state, action = args[0], args[1]
    tracer.keys["rollouts"].add((tracer.training_round, _state_key(state), action))


def _after_train_linear(tracer, args, kwargs, result):
    examples, cfg = args[0], args[1]
    tracer.counters["sgd_updates"] += len(examples) * cfg.epochs


def _after_evaluate(tracer, args, kwargs, result):
    _, logs = result
    tracer.counters["read_docs"] += len(logs)
    tracer.counters["read_steps"] += sum(len(log.actions) for log in logs)
    tracer.counters["read_fraction_sum"] += sum(log.sentences_read / log.n_sentences for log in logs)


def _after_split_job(tracer, args, kwargs, result):
    tracer.counters["job_arg_bytes"] += len(pickle.dumps(args[0]))
    if os.getpid() != tracer.spool_owner:
        tracer.spool_worker_job()


_AFTER = {
    "porter.porter_stem": _after_stem,
    "preprocess.preprocess_sentence": _after_preprocess,
    "corpus.build_vocabulary": _after_vocabulary,
    "corpus.vectorize_corpus": _after_vectorize,
    "learn.build_training_set": _after_training_set,
    "learn.sample_state": _after_sample_state,
    "learn.rollout_return": _after_rollout,
    "policy.train_linear": _after_train_linear,
    "evaluation.evaluate_policy": _after_evaluate,
    SPLIT_JOB: _after_split_job,
}


# -- per-layer figures ---------------------------------------------------------


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    covered = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def summarize(parent: dict, workers: list[dict]) -> dict:
    """Per-name call counts, inclusive and self seconds, and merged counters.

    A worker's job spans ran in parallel under one parent-process span;
    that span's self time loses the union of their intervals.
    """
    calls: Counter = Counter()
    total: Counter = Counter()
    self_time: Counter = Counter()
    counters: Counter = Counter()
    distinct: Counter = Counter()
    stems: set = set()
    n_spans = 0
    foreign: dict[int, list[tuple[int, int]]] = {}
    for part in [parent] + workers:
        names = part["names"]
        duration = part["end"] - part["start"]
        own = duration - part["child"]
        for nid in np.unique(part["name"]):
            mask = part["name"] == nid
            name = names[nid]
            calls[name] += int(mask.sum())
            total[name] += int(duration[mask].sum())
            self_time[name] += int(own[mask].sum())
        if part is not parent:
            roots = part["parent"] == -1
            for start, end in zip(part["start"][roots].tolist(), part["end"][roots].tolist()):
                foreign.setdefault(part["foreign_parent"], []).append((start, end))
        counters.update(part["counters"])
        distinct.update(part["distinct"])
        stems |= part["stems"]
        n_spans += len(part["name"])
    for index, intervals in foreign.items():
        if index >= 0:
            self_time[parent["names"][parent["name"][index]]] -= _union_ns(intervals)
    distinct["stems"] = len(stems)
    ns = 1e-9
    return {
        "calls": calls,
        "total_s": {k: v * ns for k, v in total.items()},
        "self_s": {k: v * ns for k, v in self_time.items()},
        "counters": counters,
        "distinct": distinct,
        "spans": n_spans,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    calls, total, own = summary["calls"], summary["total_s"], summary["self_s"]
    c, distinct = summary["counters"], summary["distinct"]

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    m = {
        "preprocess.tokens": c["tokens"],
        "preprocess.busy_s": t("preprocess.preprocess_sentence"),
        "porter.stem_calls": n("porter.porter_stem"),
        "porter.distinct_words": distinct["stems"],
        "corpus.splits_prepared": n("corpus.build_vocabulary"),
        "corpus.vocab_size": _ratio(c["vocab_terms"], n("corpus.build_vocabulary")),
        "corpus.build_vocabulary_s": t("corpus.build_vocabulary"),
        "corpus.vectorize_s": t("corpus.vectorize_corpus"),
        "learn.policy_iteration_s": t("learn.policy_iteration"),
        "learn.iterations": n("learn.build_training_set"),
        "learn.states_sampled": n("learn.sample_state"),
        "learn.sample_state_s": t("learn.sample_state"),
        "learn.distinct_states_share": _ratio(distinct["states"], n("learn.sample_state")),
        "learn.rollouts": n("learn.rollout_return"),
        "learn.rollout_s": t("learn.rollout_return"),
        "learn.distinct_rollouts_share": _ratio(distinct["rollouts"], n("learn.rollout_return")),
        "learn.skipped_states_share": _ratio(c["states_skipped"], c["states_planned"]),
        "learn.examples": c["examples"],
        "learn.featurize_s": t("features.phi_state_action"),
        "learn.train_eval_s": t("learn.mean_episode_reward"),
        "mdp.transitions": n("mdp.transition"),
        "mdp.transition_s": t("mdp.transition"),
        "features.phi_state_calls": n("features.phi_state"),
        "features.phi_state_s": t("features.phi_state"),
        "policy.select_action_calls": n("policy.select_action"),
        "policy.select_action_s": t("policy.select_action"),
        "policy.sgd_updates": c["sgd_updates"],
        "policy.train_linear_s": t("policy.train_linear"),
        "baseline.models_trained": n("baseline.train_baseline"),
        "baseline.train_s": t("baseline.train_baseline"),
        "baseline.predict_docs_per_s": _ratio(n("baseline.predict_baseline"), t("baseline.predict_baseline")),
        "evaluation.read_docs": c["read_docs"],
        "evaluation.read_steps": c["read_steps"],
        "evaluation.read_s": t("evaluation.evaluate_policy"),
        "evaluation.reading_size": _ratio(c["read_fraction_sum"], c["read_docs"]),
        "evaluation.split_jobs": n(SPLIT_JOB),
        "evaluation.split_job_s": t(SPLIT_JOB),
        "evaluation.job_arg_bytes": c["job_arg_bytes"],
        "evaluation.report_write_s": t("evaluation.write_report_files"),
        "cli.experiment_s": t("cli.main"),
    }
    m["preprocess.tokens_per_s"] = _ratio(m["preprocess.tokens"], m["preprocess.busy_s"])
    m["corpus.docs_per_s"] = _ratio(c["docs_vectorized"], m["corpus.vectorize_s"])
    m["learn.states_per_s"] = _ratio(m["learn.states_sampled"], m["learn.policy_iteration_s"])
    m["policy.sgd_updates_per_s"] = _ratio(m["policy.sgd_updates"], m["policy.train_linear_s"])
    m["evaluation.read_docs_per_s"] = _ratio(m["evaluation.read_docs"], m["evaluation.read_s"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in own.items() if k.split(".", 1)[0] == layer)
    m["trace.spans"] = summary["spans"]
    return {k: float(v) for k, v in m.items()}


def save_spans(path: Path, rounds: list[tuple[dict, list[dict]]]) -> None:
    """Write every traced round's spans as flat columns into one .npz file.

    ``parent`` holds the index of the parent span within the same round
    and pid, -1 for a root, or -2 - i for a worker job whose parent is
    span i of the round's parent process.
    """
    name_ids: dict[str, int] = {}
    cols: dict[str, list] = {k: [] for k in ("round", "pid", "name", "parent", "start", "end", "self_ns")}
    for round_index, (parent, workers) in enumerate(rounds):
        for part in [parent] + workers:
            remap = np.array([name_ids.setdefault(nm, len(name_ids)) for nm in part["names"]], dtype=np.int32)
            count = len(part["name"])
            parent_index = part["parent"].copy()
            if part is not parent:
                parent_index[parent_index == -1] = -2 - part["foreign_parent"]
            cols["round"].append(np.full(count, round_index, dtype=np.int32))
            cols["pid"].append(np.full(count, part["pid"], dtype=np.int32))
            cols["name"].append(remap[part["name"]])
            cols["parent"].append(parent_index)
            cols["start"].append(part["start"])
            cols["end"].append(part["end"])
            cols["self_ns"].append(part["end"] - part["start"] - part["child"])
    arrays = {k: np.concatenate(v) for k, v in cols.items()}
    np.savez_compressed(path, names=np.array(list(name_ids)), **arrays)
