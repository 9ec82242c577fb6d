"""Every exported name resolves.

``__all__`` is a list of strings that Python never checks, so deleting a
function without its export entry would only surface on a star import.
"""

import importlib
import pkgutil

import pytest

import exchtensor

MODULES = ["exchtensor"] + [
    f"exchtensor.{m.name}" for m in pkgutil.iter_modules(exchtensor.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it lacks: {missing}"
