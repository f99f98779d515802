"""Every name a piezoband module exports resolves and is listed once."""

import importlib
import pkgutil

import pytest

import piezoband

MODULES = ["piezoband"] + [
    f"piezoband.{info.name}" for info in pkgutil.iter_modules(piezoband.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_exported_names_resolve_once(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []

