"""The benchmark (perfbench/) reaches into relaysim from outside: the traced
run (perfbench/spans.py) times its layers by swapping module attributes named
in its PATCHES table and by wrapping ``RngStream.generator``, and its scripts
import package names such as ``relaysim.montecarlo.CHUNK``.  A refactor that
renames or moves one of those names would only surface as a failed benchmark
run, so they are checked against the package here."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_patched_name_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    patches = spans.PATCHES
    assert patches
    missing = [f"{mod}.{attr}" for mod, attr in patches
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []


def test_every_imported_name_exists():
    imported = {(node.module, alias.name)
                for path in sorted(PERFBENCH.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("relaysim")
                for alias in node.names}
    assert {("relaysim.montecarlo", "CHUNK"), ("relaysim.numerics", "RngStream")} <= imported
    missing = [f"{mod}.{name}" for mod, name in sorted(imported)
               if not hasattr(importlib.import_module(mod), name)]
    assert missing == []
    # spans.py wraps the method every chunk gets its generator from
    assert callable(importlib.import_module("relaysim.numerics").RngStream.generator)
