"""The package names the benchmark wraps must exist.

perfbench/spans.py replaces each (owner, attribute) of its ENTRY_POINTS with
a timing wrapper. It is read here with ast, not imported, so that a change
which deletes or renames one of those names fails in this suite, not only
in the benchmark's traced run.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _entry_points() -> list:
    """One pytest param (owner as written, attribute) per ENTRY_POINTS entry,
    named by its span."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["ENTRY_POINTS"]:
            return [
                pytest.param(ast.unparse(owner), attr.value, id=name.value)
                for owner, attr, name in (entry.elts for entry in node.value.elts)
            ]
    raise AssertionError(f"no ENTRY_POINTS list in {SPANS}")


def test_entry_points_are_listed():
    assert len(_entry_points()) >= 10


@pytest.mark.parametrize("owner, attr", _entry_points())
def test_entry_point_resolves_in_the_package(owner, attr):
    module, *path = owner.split(".")
    target = importlib.import_module(f"censorprobe.{module}")
    for part in path:
        target = getattr(target, part)
    assert callable(getattr(target, attr, None)), f"censorprobe.{owner}.{attr}"
