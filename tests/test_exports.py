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


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"magnon_battery.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
