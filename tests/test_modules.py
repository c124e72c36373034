"""Package hygiene: every module's public names resolve."""

import importlib
import pkgutil

import pytest

import pgsemi

MODULES = [f"pgsemi.{m.name}" for m in pkgutil.iter_modules(pgsemi.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
