"""Names that code outside the engine relies on: the package exports and the
attributes the per-layer tracer in perfbench/tracing.py replaces."""

import ast
import importlib
from pathlib import Path

import pytest

import cycstat

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_attributes():
    """(module, class or None, attribute) of every SPANS and COUNTS entry and
    every literal _patch call, read from the tracer's source without running
    it."""
    tree = ast.parse(TRACING.read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTS") for t in node.targets
        ):
            out.update(entry[:3] for entry in ast.literal_eval(node.value))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_patch"
            and all(isinstance(arg, ast.Constant) for arg in node.args[:3])
        ):
            out.add(tuple(arg.value for arg in node.args[:3]))
    return sorted(out, key=repr)


def test_every_export_resolves():
    missing = [name for name in cycstat.__all__ if not hasattr(cycstat, name)]
    assert missing == []


def test_tracer_source_names_entries():
    # guards the parse above: an empty list would pass every check below
    entries = _traced_attributes()
    assert ("cycstat.indicator", None, "contract") in entries
    assert ("cycstat.indicator", None, "set_partitions") in entries


@pytest.mark.parametrize("module,cls,attr", _traced_attributes())
def test_traced_attribute_is_bound(module, cls, attr):
    # the tracer reads the attribute from the owner's own __dict__
    owner = importlib.import_module(module)
    if cls is not None:
        owner = vars(owner)[cls]
    assert attr in vars(owner)
