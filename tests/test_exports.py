"""Every public name of the package resolves: each name in the ``__all__``
of each ``bihom`` module (the bench's tracer wraps layer functions by
``getattr`` over it) and each name that ``bihom/__init__.py`` re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bihom

MODULES = sorted(info.name for info in pkgutil.iter_modules(bihom.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bihom.{name}")
    names = module.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(bihom.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"bihom.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(bihom, alias.asname or alias.name) \
                is getattr(module, alias.name)
