"""Every call site the benchmark traces must exist in the library, and
the counters its hooks take from those calls must still add up.

``perfbench/spans.py`` wraps each ``(module, function)`` of its ``TRACED``
list by name, so a renamed or deleted function would break the traced
benchmark run. The list is read from the file's source, not imported.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import make_doc
from stc import learn
from stc.policy import ClassifierConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced() -> tuple[tuple[str, str], ...]:
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no TRACED list")


@pytest.mark.parametrize("module, function", _traced())
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"stc.{module}"), function, None))


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_counters_of_a_greedy_policy_iteration(tmp_path):
    # The hooks read the return values and arguments of
    # build_training_set and train_linear.
    spans = _spans_module()
    docs = [make_doc(2 + s % 3, np.eye(3, dtype=int)[s % 3], vocab_size=5, seed=s, doc_id=f"d{s}") for s in range(6)]
    cfg = learn.RolloutConfig(n_states=80, iterations=3, seed=2, classifier=ClassifierConfig(epochs=2))
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        result = learn.policy_iteration(docs, "mono", cfg)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(spans.summarize(tracer.take(), []))
    examples = sum(record["n_examples"] for record in result.telemetry)
    assert len(result.telemetry) >= 2  # at least one greedy round
    assert metrics["learn.iterations"] == len(result.telemetry)
    assert metrics["learn.examples"] == examples
    assert metrics["policy.sgd_updates"] == examples * cfg.classifier.epochs
