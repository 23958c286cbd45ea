"""Every function the benchmark traces must exist in the package.

The tracer in ``perfbench/spans.py`` reports a vanished wrap point only as a
warning and drops the per-layer metrics that need it, so a rename in
``src/redunda`` would otherwise pass unnoticed.  The module is loaded by path
and only read.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    """Execute the file without importing it, so no bytecode is written."""
    module = types.ModuleType("_perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_wrap_point_resolves_to_a_callable():
    points = load_spans().WRAP_POINTS
    assert points
    missing = []
    for name, module, attr, _count in points:
        assert module.startswith("redunda."), name
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"{name} ({module}.{attr})")
    assert missing == []
