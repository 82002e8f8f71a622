"""perfbench's span tracer wraps vpskit functions by (module, attribute) name.

A renamed or moved function would otherwise only show up as an absent span
in the slow benchmark self-check; here each pair must still resolve.
"""

import ast
import importlib
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of spans.py's WRAPPED table, read without importing it."""
    for node in ast.parse(_SPANS.read_text("utf-8")).body:
        names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if names == ["WRAPPED"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{_SPANS} defines no WRAPPED table")


@pytest.mark.parametrize("module, attr", _wrapped(), ids=lambda v: v)
def test_wrapped_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
