"""Every function the benchmark traces must exist in the package, and be
called through the attribute the tracer wraps.

The tracer in ``perfbench/spans.py`` reports a vanished wrap point only as a
warning and drops the per-layer metrics that need it, and a call that
bypasses the wrapped module attribute reads 0, so a rename or a
``from ... import`` in ``src/redunda`` would otherwise pass unnoticed.  The
module is loaded by path and only read.
"""

from __future__ import annotations

import importlib
import os
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import with_duplicates
from redunda import cli
from redunda.store import EmbeddingDataset, canonical_bytes

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


def traced_select(tmp_path, monkeypatch, fraction, *flags):
    """Spans of one ``select`` on a two-class dataset, and its point count.

    The tracer sees only the process it is installed in, so the run is pinned
    to one CPU, which keeps both classes in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    rs = np.random.default_rng(5)
    X = with_duplicates(rs, rs.normal(size=(120, 8)), 20)
    ds = EmbeddingDataset(np.arange(120), np.repeat([0, 1], [70, 50]), X)
    data = tmp_path / "d.bin"
    data.write_bytes(canonical_bytes(ds))
    tracer = load_spans().Tracer()
    try:
        missing = tracer.install()
        rc = cli.main(["select", "--input", str(data), "--fraction", str(fraction),
                       "--out", str(tmp_path / "out"), *flags])
    finally:
        tracer.uninstall()
    assert missing == [] and rc == 0
    return tracer.spans, len(ds)


REPORTS = {"analysis.avg_dissimilarity", "analysis.nearest_excluded"}
NO_REPORTS = ("--no-dissimilarity", "--no-nearest-excluded")


@pytest.mark.parametrize("fraction, flags, off", [
    (0.9, (), {"metric.pairwise_condensed"}),
    (0.9, NO_REPORTS, {"metric.pairwise_condensed", *REPORTS}),
    (0.1, (), set()),  # every class gives up to the dense loop
])
def test_traced_select_reaches_every_wrap_point_and_normalizes_once(
    tmp_path, monkeypatch, fraction, flags, off
):
    spans, points = traced_select(tmp_path, monkeypatch, fraction, *flags)
    assert {name for _, _, name, *_ in spans} == {n for n, *_ in load_spans().WRAP_POINTS} - off
    if REPORTS <= off:
        # Only the medoid fallback calls ``metric.one_to_many`` here.  The
        # input's twins tie some cluster's medoid scores, which forces one; an
        # input without such a cluster must fail this, not drop the span.
        medoids = {sid for sid, _, name, *_ in spans if name == "selection.select_representative"}
        assert any(parent in medoids for _, parent, name, *_ in spans
                   if name == "metric.one_to_many")
    # Each class is normalized once, also when a give-up builds the condensed
    # matrix: that takes the class's unit rows instead of normalizing again.
    dense = {sid for sid, _, name, *_ in spans if name == "metric.pairwise_condensed"}
    rows = [(parent in dense, n) for _, parent, name, _, _, n in spans
            if name == "metric.unit_rows"]
    assert sum(n for in_dense, n in rows if not in_dense) == points
    assert [n for in_dense, n in rows if in_dense] == []
