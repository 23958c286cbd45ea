"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each wrap point -- the module attribute that the
caller resolves at call time -- with a wrapper that records one span per call:
``[id, parent id, name, start, end, count]``.  ``count`` is a size taken from
the call's arguments (rows, cells, cluster size, bytes) or None.  Spans stay in
memory until the child writes them out after the run.

A wrap point that no longer exists is returned as missing instead of raising,
so a later rename costs only the metrics that need it (``layer_metrics`` drops
them).  Untraced runs never import this module.
"""

from __future__ import annotations

import importlib
import threading
import time


def _len0(args, kwargs):
    return len(args[0])


def _cells(args, kwargs):
    n = len(args[0])
    return n * (n - 1) // 2


def _merges(args, kwargs):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return len(args[0]) - int(k)


def _emit_bytes(args, kwargs):
    artifacts = args[1] if len(args) > 1 else kwargs["artifacts"]
    return sum(
        len(p) if isinstance(p, bytes) else len(p.encode("utf-8")) for _, p in artifacts
    )


# (span name, module, attribute, count taken from the arguments)
WRAP_POINTS = (
    ("cli.load_dataset", "redunda.cli", "load_dataset", None),
    ("cli._emit", "redunda.cli", "_emit", _emit_bytes),
    ("selection.build_cluster_subset", "redunda.selection", "build_cluster_subset", None),
    ("selection.agglomerate_fast", "redunda.selection", "agglomerate_fast", _merges),
    ("selection.select_representative", "redunda.selection", "select_representative", _len0),
    ("selection.validate_manifest", "redunda.selection", "validate_manifest", None),
    ("metric.pairwise_condensed", "redunda.metric", "pairwise_condensed", _cells),
    ("metric.one_to_many", "redunda.metric", "one_to_many", None),
    ("metric.unit_rows", "redunda.metric", "unit_rows", _len0),
    ("cluster.cut_dendrogram", "redunda.cluster", "cut_dendrogram", None),
    ("analysis.size_histogram", "redunda.analysis", "size_histogram", None),
    ("analysis.avg_dissimilarity", "redunda.analysis", "avg_dissimilarity", None),
    ("analysis.nearest_excluded", "redunda.analysis", "nearest_excluded", None),
)


class Tracer:
    """Records spans for the wrap points it installs; one tracer per run."""

    def __init__(self, points=WRAP_POINTS):
        self.points = points
        self.spans: list[list] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, local = self.spans, self._local

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            n = None
            if count is not None:
                try:
                    n = count(args, kwargs)
                except (IndexError, KeyError, TypeError, ValueError, AttributeError):
                    n = None
            rec = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, n]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> list[str]:
        """Wrap every point that exists; return the names of those that do not."""
        missing = []
        for name, module, attr, count in self.points:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                missing.append(name)
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                missing.append(name)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, count))
        return missing

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced run.

# name -> (unit, span names it needs)
LAYER_METRICS = {
    "store.load_s": ("s", ["cli.load_dataset"]),
    "metric.pairwise_s": ("s", ["metric.pairwise_condensed"]),
    "metric.pairwise_cells": ("count", ["metric.pairwise_condensed"]),
    "metric.one_to_many_calls": ("count", ["metric.one_to_many"]),
    "metric.one_to_many_s": ("s", ["metric.one_to_many"]),
    "metric.unit_rows_s": ("s", ["metric.unit_rows"]),
    "metric.unit_rows_per_point": ("rows/point", ["metric.unit_rows"]),
    "cluster.agglomerate_s": ("s", ["selection.agglomerate_fast"]),
    "cluster.chain_self_s": ("s", ["selection.agglomerate_fast", "metric.pairwise_condensed",
                                   "cluster.cut_dendrogram"]),
    "cluster.cut_s": ("s", ["cluster.cut_dendrogram"]),
    "cluster.merges_kept": ("count", ["selection.agglomerate_fast"]),
    "selection.build_s": ("s", ["selection.build_cluster_subset"]),
    "selection.medoid_s": ("s", ["selection.select_representative"]),
    "selection.medoid_calls": ("count", ["selection.select_representative"]),
    "selection.medoid_singleton_share": ("ratio", ["selection.select_representative"]),
    "selection.validate_s": ("s", ["selection.validate_manifest"]),
    "analysis.histogram_s": ("s", ["analysis.size_histogram"]),
    "analysis.avg_dissimilarity_s": ("s", ["analysis.avg_dissimilarity"]),
    "analysis.nearest_excluded_s": ("s", ["analysis.nearest_excluded"]),
    "analysis.report_share": ("ratio", ["analysis.size_histogram", "analysis.avg_dissimilarity",
                                        "analysis.nearest_excluded"]),
    "cli.emit_s": ("s", ["cli._emit"]),
    "cli.emit_bytes": ("bytes", ["cli._emit"]),
    "cli.residual_s": ("s", [name for name, *_ in WRAP_POINTS]),
}


def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover.

    Children of one span run in one thread one after another, so their
    durations do not overlap and can be summed.
    """
    child_time = [0.0] * len(spans)
    for sid, parent, _, t0, t1, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    out: dict[str, float] = {}
    for sid, _, name, t0, t1, _ in spans:
        out[name] = out.get(name, 0.0) + (t1 - t0) - child_time[sid]
    return out


def layer_metrics(spans, missing, wall_s: float, points: int) -> tuple[dict, list[str]]:
    """Metrics of one traced run, and the names left out for a missing span."""
    total: dict[str, float] = {}
    sizes: dict[str, list] = {}  # span name -> the count of each call
    for _, _, name, t0, t1, n in spans:
        total[name] = total.get(name, 0.0) + (t1 - t0)
        sizes.setdefault(name, []).append(n)

    def calls(name):
        return float(len(sizes.get(name, [])))

    def count(name):  # None when a call's size could not be taken
        ns = sizes.get(name, [])
        return None if None in ns else float(sum(ns))

    medoids = sizes.get("selection.select_representative", [])
    analysis_s = sum(total.get(n, 0.0) for n in LAYER_METRICS["analysis.report_share"][1])
    roots = sum(t1 - t0 for _, parent, _, t0, t1, _ in spans if parent is None)
    unit_rows = count("metric.unit_rows")
    values = {
        "store.load_s": total.get("cli.load_dataset", 0.0),
        "metric.pairwise_s": total.get("metric.pairwise_condensed", 0.0),
        "metric.pairwise_cells": count("metric.pairwise_condensed"),
        "metric.one_to_many_calls": calls("metric.one_to_many"),
        "metric.one_to_many_s": total.get("metric.one_to_many", 0.0),
        "metric.unit_rows_s": total.get("metric.unit_rows", 0.0),
        "metric.unit_rows_per_point": None if unit_rows is None else unit_rows / points,
        "cluster.agglomerate_s": total.get("selection.agglomerate_fast", 0.0),
        "cluster.chain_self_s": self_times(spans).get("selection.agglomerate_fast", 0.0),
        "cluster.cut_s": total.get("cluster.cut_dendrogram", 0.0),
        "cluster.merges_kept": count("selection.agglomerate_fast"),
        "selection.build_s": total.get("selection.build_cluster_subset", 0.0),
        "selection.medoid_s": total.get("selection.select_representative", 0.0),
        "selection.medoid_calls": calls("selection.select_representative"),
        "selection.medoid_singleton_share": None if None in medoids
        else medoids.count(1) / len(medoids) if medoids else 0.0,
        "selection.validate_s": total.get("selection.validate_manifest", 0.0),
        "analysis.histogram_s": total.get("analysis.size_histogram", 0.0),
        "analysis.avg_dissimilarity_s": total.get("analysis.avg_dissimilarity", 0.0),
        "analysis.nearest_excluded_s": total.get("analysis.nearest_excluded", 0.0),
        "analysis.report_share": analysis_s / wall_s,
        "cli.emit_s": total.get("cli._emit", 0.0),
        "cli.emit_bytes": count("cli._emit"),
        "cli.residual_s": wall_s - roots,
    }
    dropped = sorted(
        m for m, (_, needs) in LAYER_METRICS.items()
        if values[m] is None or any(n in missing for n in needs)
    )
    return {m: v for m, v in values.items() if m not in dropped}, dropped
