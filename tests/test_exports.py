"""Every exported name resolves, so a deletion cannot leave a dangling
entry in a module's __all__ or in the package namespace."""

import ast
import importlib
from pathlib import Path

import pytest

import qfock

MODULES = ("qcomb", "fock", "ops", "limits", "checks", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qfock.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing


def test_package_imports_resolve():
    tree = ast.parse(Path(qfock.__file__).read_text())
    names = [alias.asname or alias.name
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names
    missing = [n for n in names if not hasattr(qfock, n)]
    assert not missing
