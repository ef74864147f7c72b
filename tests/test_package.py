"""Package-wide invariants that no single module's tests own."""

import importlib
import pkgutil

import pytest

import nagsa

_MODULES = sorted(f"nagsa.{info.name}" for info in pkgutil.iter_modules(nagsa.__path__))


@pytest.mark.parametrize("module_name", _MODULES)
def test_every_all_name_resolves(module_name):
    """Each name a module exports in __all__ exists: `from module import *`
    and tools that getattr every exported name (the span tracer of
    perfbench) would otherwise fail on a stale entry."""
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
