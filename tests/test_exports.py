from __future__ import annotations

import ast
import dataclasses
import importlib
import pkgutil
import typing
from pathlib import Path

import pytest

import barriers
from barriers.barrier import Classification

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


def _library_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for every import of the library in a file; name is
    None for a plain ``import barriers...``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "barriers"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "barriers":
            found += [(node.module, a.name) for a in node.names]
    return found


def test_the_oracles_import_no_library_definitions():
    # benchmarks/oracle.py defines every reference without the library, and
    # tests/oracles.py reads it through data classes, type aliases and the
    # classification constants; slow_fs classifies with step and insert_sorted
    root = Path(__file__).resolve().parents[1]
    assert _library_imports(root / "benchmarks" / "oracle.py") == []
    imported = _library_imports(root / "tests" / "oracles.py")
    assert imported
    for module, name in imported:
        assert name is not None, f"tests/oracles.py imports the module {module}"
        obj = getattr(importlib.import_module(module), name)
        assert (
            (isinstance(obj, type) and dataclasses.is_dataclass(obj))
            or typing.get_origin(obj) is not None
            or isinstance(obj, Classification)
            or name in {"step", "insert_sorted"}
        ), f"tests/oracles.py imports {name} from {module}"
