"""Every module of the package uses each name it imports, and reads each
private name it binds at module level."""

import ast
from pathlib import Path

import pytest

import dfeoffload

PACKAGE = Path(dfeoffload.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never read; ``__future__``
    imports are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def unread_private_names(source: str) -> list[str]:
    """Names starting with one underscore that ``source`` binds at module
    level, by assignment or definition, and never reads itself."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from enum import Enum, IntEnum\nclass Pin(IntEnum): pass\n")
    assert unused_imports(source) == ["os", "Enum"]


def test_the_check_finds_an_unread_private_name():
    source = ("_A, _B = 1, 2\n_C: int = 3\n__all__ = []\nPUBLIC = 4\n"
              "def _f(): return _A\nclass _K: pass\ndef g(): _D = 5; return _K\n")
    assert unread_private_names(source) == ["_B", "_C", "_f"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_a_module_reads_every_private_name_it_binds(path):
    assert unread_private_names(path.read_text()) == []
