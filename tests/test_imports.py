"""Every module of the package uses each name it imports."""

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


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from enum import Enum, IntEnum\nclass Pin(IntEnum): pass\n")
    assert unused_imports(source) == ["os", "Enum"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
