"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import modicalab

MODULES = sorted(info.name for info in pkgutil.iter_modules(modicalab.__path__))


@pytest.mark.parametrize("module", ["modicalab"] + [f"modicalab.{name}" for name in MODULES])
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
