"""Every exported name resolves, so ``from magnon_battery import *`` works."""

import importlib
import pkgutil

import pytest

import magnon_battery

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(magnon_battery.__path__) if not info.name.startswith("_")
)


def test_package_star_import():
    namespace = {}
    exec("from magnon_battery import *", namespace)
    assert set(magnon_battery.__all__) <= set(namespace)
    # each public name is stated once, in its module's __all__; the package
    # does not import the command line, and exports the closed forms as a module
    names = magnon_battery.__all__
    assert len(names) == len(set(names))
    for name in set(MODULES) - {"cli", "analytic"}:
        assert set(importlib.import_module(f"magnon_battery.{name}").__all__) <= set(names)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"magnon_battery.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
