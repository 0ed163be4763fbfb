"""The benchmark's tracer (perfbench/spans.py) wraps rankshape functions at
the names their callers look them up under. A refactor that drops one of
those names would pass every other test and then crash ``--trace 1`` with
an AttributeError, so each site must keep resolving.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def import_sites():
    """IMPORT_SITES read from the source text, without importing perfbench."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "IMPORT_SITES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no IMPORT_SITES in {SPANS}")


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in import_sites()])
def test_import_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_trace_writer_resolves():
    from rankshape.sim import SimTrace

    assert callable(SimTrace.to_csv)
