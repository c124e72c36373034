"""Package hygiene: every module's public names resolve."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import pgsemi

MODULES = [f"pgsemi.{m.name}" for m in pkgutil.iter_modules(pgsemi.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_import_loads_no_sympy():
    # numpy is the only runtime dependency; sympy is the tests' oracle
    code = ("import sys, pgsemi, pgsemi.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'sympy'])")
    root = os.path.dirname(os.path.dirname(pgsemi.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
