"""Every exchtensor name the benchmark harness reaches still resolves,
and every call it makes to one still binds.

``perfbench/`` lies outside the test paths, so without this check an API
deletion that breaks its imports, its traced targets or the arguments
it passes would only show up when the benchmark runs.
"""

import ast
import importlib
import inspect
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


def forwarders(tree):
    """Names of functions shaped ``f(fn, *args, **kwargs)``, which call
    ``fn`` with the rest of their arguments."""
    return {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and len(node.args.args) == 1
        and node.args.vararg and node.args.kwarg
    }


def calls_to_imported(path):
    """(module, name, positional count, keywords) for each call of a name
    bound by ``from exchtensor... import name``, made directly or through
    a forwarder such as ``timed(evaluate, ...)``."""
    imported = {name: (module, name) for module, name in imported_names(path)}
    tree = ast.parse(path.read_text())
    forward = forwarders(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        args = node.args
        callee = node.func.id
        if callee in forward and args and isinstance(args[0], ast.Name):
            callee, args = args[0].id, args[1:]
        if callee in imported:
            assert not any(isinstance(a, ast.Starred) for a in args)
            assert all(k.arg is not None for k in node.keywords)
            yield (*imported[callee], len(args),
                   tuple(k.arg for k in node.keywords))


def test_every_benchmark_call_binds():
    calls = {call for path in sorted(PERFBENCH.glob("*.py"))
             for call in calls_to_imported(path)}
    assert ("exchtensor.models", "fea_decode", 4, ("imputation",)) in calls
    assert ("exchtensor.training", "evaluate", 4, ("cell_budget",)) in calls
    unbound = []
    for module, name, n_args, keywords in sorted(calls):
        target = getattr(importlib.import_module(module), name)
        try:
            inspect.signature(target).bind_partial(
                *[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{module}.{name}: {exc}")
    assert not unbound, f"benchmark calls that no longer bind: {unbound}"


def bare_names(path):
    """Names a file reads by their bare name; import aliases and strings,
    such as the entries of ``__all__``, are not ``ast.Name`` nodes."""
    return {node.id for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_traced_target_is_called_by_name():
    """The tracer rebinds module-level names, so a traced function that
    is reached only as a method or through an alias records no span, and
    the per-layer metric built from it silently reads zero."""
    src = Path(__file__).resolve().parent.parent / "src" / "exchtensor"
    names = set().union(*(bare_names(path) for path in
                          (*src.glob("*.py"), *PERFBENCH.glob("*.py"))))
    unreached = [f"{module}.{attr}" for module, attr in traced_targets()
                 if attr not in names]
    assert not unreached, f"traced targets no code calls by name: {unreached}"
