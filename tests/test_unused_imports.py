"""Every name a posetkit module imports is used in that module, and
every function, method and class it defines is used somewhere.

No linter is assumed; this walks each module's syntax tree.  An import
kept on purpose carries ``# noqa: F401`` on its line.  ``__init__.py``
imports to re-export, so it is left out of the import check.  A
definition counts as used when its name is read, imported, or spelled as
a string (``setattr`` and the benchmark's span table name functions that
way) anywhere in ``src/``, ``tests/`` or ``bench/`` outside the
definition itself.  Dunder methods are called by Python and are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "posetkit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(p for folder in ("src", "tests", "bench")
                 for p in (ROOT / folder).rglob("*.py"))


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


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _name_uses(tree) -> "Counter[str]":
    """How often each name is read, imported or spelled as a string."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif isinstance(node, ast.alias):
            uses[node.name.split(".")[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            uses[node.value] += 1
    return uses


def unused_definitions(modules: "dict[str, str]", others: "list[str]") -> "list[str]":
    """Sorted ``module:name`` of each non-dunder definition in ``modules``
    whose name is used nowhere outside its own body, ``others`` included."""
    trees = {label: ast.parse(text) for label, text in modules.items()}
    uses = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        uses.update(_name_uses(tree))
    unused = []
    for label, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, _DEFINITIONS):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if uses[node.name] - _name_uses(node)[node.name] <= 0:
                unused.append(f"{label}:{node.name}")
    return sorted(unused)


def test_the_check_sees_an_unused_definition():
    source = ("class Poset:\n"
              "    def __init__(self):\n"
              "        self.n = 0\n"
              "    def min_of(self, subset):\n"
              "        return self.min_of(subset)\n"
              "    def join_of(self, subset):\n"
              "        return subset\n"
              "def helper():\n"
              "    def inner():\n"
              "        return 1\n"
              "    return inner()\n")
    assert unused_definitions({"poset": source}, ["Poset().join_of(0)\n"]) == [
        "poset:helper", "poset:min_of"]
    assert unused_definitions({"poset": source}, ["helper()\n"]) == [
        "poset:Poset", "poset:join_of", "poset:min_of"]


def test_every_definition_is_used():
    package = sorted(PACKAGE.glob("*.py"))
    modules = {p.name: p.read_text(encoding="utf-8") for p in package}
    others = [p.read_text(encoding="utf-8") for p in SOURCES if p not in package]
    assert unused_definitions(modules, others) == []
