"""The names the benchmark calls by name stay in the package.

``bench/`` wraps (module, function) pairs in spans, calls ``pk.<name>``
and ``posetkit.cli.<name>``, and swaps ``DMLattice.as_poset`` and
``cli.ThreadPoolExecutor``.  A deleted name there fails only a traced or
full benchmark run, so this test reads ``bench/`` as text, without
importing its workloads, and looks every name up.
"""

import ast
import importlib
import re
from pathlib import Path

import posetkit
import posetkit.cli
from posetkit.completion import DMLattice

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _spans() -> dict:
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if any(isinstance(t, ast.Name) and t.id == "SPANS" for t in getattr(node, "targets", ())):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no SPANS")


def test_names_the_benchmark_calls_exist():
    spans = _spans()
    assert spans
    for module, attr in spans:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)

    text = "".join(path.read_text(encoding="utf-8") for path in sorted(BENCH.glob("*.py")))
    package_names = set(re.findall(r"\bpk\.(\w+)", text))
    cli_names = set(re.findall(r"\bposetkit\.cli\.(\w+)", text))
    assert "complete" in package_names and "cli_main" in cli_names
    assert sorted(n for n in package_names if not hasattr(posetkit, n)) == []
    assert sorted(n for n in cli_names if not hasattr(posetkit.cli, n)) == []

    assert callable(DMLattice.as_poset)
    assert callable(posetkit.cli.cli_main)
    assert callable(posetkit.cli.ThreadPoolExecutor)
