"""Every exchtensor name the benchmark harness reaches still resolves.

``perfbench/`` lies outside the test paths, so without this check an API
deletion that breaks its imports or its traced targets would only show
up when the benchmark runs.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def imported_names(path):
    """(module, name) for each ``from exchtensor... import name``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "exchtensor":
            for alias in node.names:
                yield node.module, alias.name


def traced_targets():
    """(module, attribute) pairs of the TARGETS list in traced.py."""
    tree = ast.parse((PERFBENCH / "traced.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("perfbench/traced.py defines no TARGETS list")


def test_every_benchmark_name_resolves():
    names = set(traced_targets())
    for path in sorted(PERFBENCH.glob("*.py")):
        names.update(imported_names(path))
    assert ("exchtensor.layers", "pooling_groups") in names
    missing = [f"{module}.{name}" for module, name in sorted(names)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"names the benchmark uses are gone: {missing}"
