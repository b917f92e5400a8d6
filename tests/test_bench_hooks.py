"""The traced benchmark (perfbench/spans.py) times relaysim's layers by
swapping module attributes named in its PATCHES table.  A refactor that
renames or moves one of those names would only surface as a failed traced
benchmark run, so the table is checked against the package here."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_patched_name_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    patches = spans.PATCHES
    assert patches
    missing = [f"{mod}.{attr}" for mod, attr in patches
               if not hasattr(importlib.import_module(mod), attr)]
    assert missing == []
