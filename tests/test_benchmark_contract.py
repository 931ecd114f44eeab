"""The package names the benchmark reads and wraps must exist.

perfbench/spans.py replaces each (owner, attribute) of its ENTRY_POINTS with
a timing wrapper, and every perfbench/*.py file reads module-level names of
the package, as `module.name` after `from censorprobe import module` or by
`from censorprobe.module import name`. The files are read here with ast, not
imported, so that a change which deletes or renames one of those names fails
in this suite, not only in the benchmark's runs.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def _names_read() -> list:
    """One pytest param (module, name) per package name a perfbench file
    reads, named by the file and the name as it is read."""
    params = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.partition(".")[0] == "censorprobe":
                        modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if node.module == "censorprobe":
                        modules[alias.asname or alias.name] = f"censorprobe.{alias.name}"
                    elif (node.module or "").startswith("censorprobe."):
                        name = f"{path.name}:{node.module}.{alias.name}"
                        params[name] = (node.module, alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                module = modules[node.value.id]
                params[f"{path.name}:{module}.{node.attr}"] = (module, node.attr)
    return [pytest.param(*names, id=name) for name, names in sorted(params.items())]


def test_names_read_are_found():
    read = {param.values for param in _names_read()}
    for expected in [
        ("censorprobe.dnswire", "query"), ("censorprobe.httpwire", "fetch"),
        ("censorprobe.probe", "run_campaign"), ("censorprobe.probe", "ProbeConfig"),
        ("censorprobe.report", "emit"), ("censorprobe.dataset", "load_target_list"),
        ("censorprobe.classify", "classify_target"), ("censorprobe.emulator", "Emulator"),
        ("censorprobe.emulator", "load_policy"), ("censorprobe.model", "ResolverSpec"),
    ]:
        assert expected in read


@pytest.mark.parametrize("module, name", _names_read())
def test_name_read_exists_in_the_package(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
