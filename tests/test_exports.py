"""Every name that the package or one of its modules lists in ``__all__`` resolves,
so ``from vortexcyl.<module> import *`` cannot fail on a stale entry."""
import importlib
import pkgutil

import pytest

import vortexcyl

MODULES = ["vortexcyl", *(f"vortexcyl.{info.name}" for info in pkgutil.iter_modules(vortexcyl.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [entry for entry in exported if not hasattr(module, entry)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
