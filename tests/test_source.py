"""Source checks that need only the standard library."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "conespec"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names an import binds that the module never reads.

    `from m import name as name` is an explicit re-export and counts as
    used, as it does for pyflakes and mypy.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname is not None and alias.asname == alias.name:
                    continue
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    source = ("from typing import Optional, Tuple\n"
              "from .spectral import cw_upper as cw_upper\n"
              "import os.path\n"
              "x: Tuple[int] = os.sep\n")
    assert unused_imports(source) == [(1, "Optional")]
