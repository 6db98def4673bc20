"""Import hygiene of the package, checked with the stdlib `ast` module:
every module-level import is used, no function imports anything, and the
package root binds its submodules only."""

import ast
import importlib
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "realizability"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds in its namespace."""
    return [a.asname or a.name.split(".")[0] for a in node.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = _tree(path)
    imported = [name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for name in _bound_names(node)]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [name for name in imported if name not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_imports_anything(path):
    inner = [f"{fn.name} (line {node.lineno})"
             for fn in ast.walk(_tree(path))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []


def test_package_root_binds_only_submodules():
    package = importlib.import_module("realizability")
    names = [name for name, value in vars(package).items()
             if not name.startswith("__")
             and not isinstance(value, types.ModuleType)]
    assert names == []
