"""Every exported name resolves.

A module's __all__ and the package __init__ are its public surface; a
name left there after the code behind it was deleted fails here, not in
a user's import.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import toricsolve
from toricsolve import eigensolver

MODULES = sorted(m.name for m in pkgutil.iter_modules(toricsolve.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"toricsolve.{name}")
    assert module.__all__, name
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"toricsolve.{name}.__all__ lists missing names {missing}"


def test_package_exports_are_module_exports():
    # each name the package imports from a module is one that module
    # declares public, and resolves on the package
    tree = ast.parse(Path(toricsolve.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"toricsolve.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert hasattr(toricsolve, alias.asname or alias.name), alias.name


def test_solve_takes_no_tuning_arguments():
    # every threshold is a module constant and the pair is always verified
    assert str(inspect.signature(toricsolve.solve)) == "(system, rays=None, pair=None, seed=0)"


def test_alpha0_is_told_once():
    # the multiplier degree is recorded on the Res by assemble_res; the
    # cokernel and the family read it from there
    assert str(inspect.signature(eigensolver.cokernel)) == "(res, corank_only=False)"
    assert str(inspect.signature(eigensolver.multiplication_family)) == "(cok, seed=0)"
