"""Every name a posetkit module imports is used in that module.

No linter is assumed; this walks each module's syntax tree.  An import
kept on purpose carries ``# noqa: F401`` on its line.  ``__init__.py``
imports to re-export, so it is left out.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "posetkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree, lines):
    """(name bound, line) for each import not marked noqa: F401."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            line = alias.lineno
            if "# noqa: F401" in lines[line - 1]:
                continue
            yield alias.asname or alias.name.split(".")[0], line


def _referenced(tree):
    """Names read anywhere, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


def unused_imports(source: str) -> "list[tuple[str, int]]":
    tree = ast.parse(source)
    used = _referenced(tree)
    return [(name, line) for name, line in _imported(tree, source.splitlines())
            if name not in used]


def test_the_check_sees_an_unused_import_and_honours_noqa():
    source = ("import os\n"
              "from typing import Any, Sequence\n"
              "from json import dumps  # noqa: F401\n"
              "def f(x: 'Sequence[int]'):\n"
              "    return os.sep\n")
    assert unused_imports(source) == [("Any", 2)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
