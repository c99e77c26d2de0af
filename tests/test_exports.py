from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import barriers

MODULES = sorted(m.name for m in pkgutil.iter_modules(barriers.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry, left by a deletion, fails here and in the star import
    module = importlib.import_module(f"barriers.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"barriers.{name}.__all__ names {attr!r}, which it does not define"
    exec(f"from barriers.{name} import *", {})


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(barriers.__file__).read_text())
    imported = [a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported, "the package imports no names"
    for attr in imported:
        assert hasattr(barriers, attr), attr
    assert barriers.StagedColoring is importlib.import_module("barriers.diag").StagedColoring
