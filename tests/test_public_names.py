import importlib
import pkgutil

import pytest

import reggeshell

MODULES = [info.name for info in pkgutil.iter_modules(reggeshell.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"reggeshell.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
