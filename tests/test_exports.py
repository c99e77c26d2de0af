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
    # classification constants
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
        ), f"tests/oracles.py imports {name} from {module}"


def _unused_imports(path: Path) -> list[str]:
    """The names a file's top-level imports bind that nothing in it reads;
    a name listed in ``__all__`` is read."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]


def test_no_file_imports_a_name_it_does_not_use():
    # the package's __init__ imports only to re-export
    root = Path(__file__).resolve().parents[1]
    files = [p for p in sorted((root / "src" / "barriers").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "tests").glob("*.py"))
    assert len(files) > 10
    assert [u for path in files for u in _unused_imports(path)] == []
