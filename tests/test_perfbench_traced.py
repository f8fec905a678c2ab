"""Every call site the benchmark traces must exist in the library.

``perfbench/spans.py`` wraps each ``(module, function)`` of its ``TRACED``
list by name, so a renamed or deleted function would break the traced
benchmark run. The list is read from the file's source, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

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
