"""Redundancy analytics: size histograms, dissimilarity to the retained
sample, and nearest excluded neighbors."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import metric
from .cluster import Partition
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class SizeHistogram:
    """Cluster-size counts for one class."""

    class_id: int
    counts: Mapping[int, int]  # cluster size -> number of clusters


@dataclass(frozen=True)
class ClassDissimilarity:
    """Per-class mean dissimilarity of non-retained members to their medoid.

    ``cluster_means`` holds one entry per qualifying cluster (size >= 2), in
    partition order; ``mean`` is their average.
    """

    class_id: int
    mean: float
    cluster_means: tuple[float, ...]


@dataclass(frozen=True)
class DissimilarityReport:
    per_class: Mapping[int, float]
    overall: float | None
    groups_counted: Mapping[int, int]
    class_weighted: bool  # False: overall averages clusters; True: averages classes


@dataclass(frozen=True)
class NearestExcludedPair:
    retained_id: int
    neighbor_id: int
    dissimilarity: float


def size_histogram(partition: Partition) -> SizeHistogram:
    counts: dict[int, int] = {}
    for cluster in partition.clusters:
        counts[len(cluster)] = counts.get(len(cluster), 0) + 1
    return SizeHistogram(partition.class_id, dict(sorted(counts.items())))


def _qualifying(
    partition: Partition,
    reps: Sequence[int],
    ids: np.ndarray,
    member_rows: Sequence[np.ndarray] | None = None,
) -> list[tuple[int, np.ndarray]]:
    """``(rep row, member rows)`` of each cluster of size >= 2, in partition
    order; member rows ascend by sample id.  ``member_rows`` is
    ``partition.member_rows(ids)`` when the caller already holds it."""
    if len(reps) != len(partition.clusters):
        raise InvalidArgumentError(
            f"{len(reps)} representatives for {len(partition.clusters)} clusters"
        )
    if member_rows is None:
        member_rows = partition.member_rows(ids)
    out = []
    for ci, (rep, rows) in enumerate(zip(reps, member_rows)):
        if rep not in partition.clusters[ci]:
            raise InvalidArgumentError(f"representative {rep} is not a member of cluster {ci}")
        if len(rows) >= 2:
            out.append((int(rows[ids[rows] == rep][0]), rows))
    return out


def avg_dissimilarity(
    partition: Partition, reps: Sequence[int], ids: np.ndarray, X: np.ndarray, U: np.ndarray,
    member_rows: Sequence[np.ndarray] | None = None,
) -> ClassDissimilarity | None:
    """Average dissimilarity to the retained sample over clusters of size >= 2.

    ``reps`` holds each cluster's retained sample, aligned with
    ``partition.clusters``; ``ids``, ``X`` and ``U`` are the class's sample
    ids, rows and unit rows in row order, and ``member_rows`` is
    ``partition.member_rows(ids)`` (computed when omitted).  Returns None
    when the class has no qualifying cluster (class omitted from the report
    rather than reported as zero).
    """
    cluster_means: list[float] = []
    for rep_row, rows in _qualifying(partition, reps, ids, member_rows):
        others = rows[rows != rep_row]
        d = metric.one_to_many(X[rep_row], X, U, others)
        cluster_means.append(float(d.mean()))
    if not cluster_means:
        return None
    return ClassDissimilarity(
        partition.class_id, float(np.mean(cluster_means)), tuple(cluster_means)
    )


def assemble_dissimilarity_report(
    entries: Sequence[ClassDissimilarity], *, class_weighted: bool = False
) -> DissimilarityReport:
    """Combine per-class entries; overall is cluster-weighted by default."""
    per_class = {e.class_id: e.mean for e in entries}
    groups = {e.class_id: len(e.cluster_means) for e in entries}
    if not entries:
        overall = None
    elif class_weighted:
        overall = float(np.mean([e.mean for e in entries]))
    else:
        overall = float(np.mean(np.concatenate([e.cluster_means for e in entries])))
    return DissimilarityReport(
        per_class=per_class,
        overall=overall,
        groups_counted=groups,
        class_weighted=class_weighted,
    )


def nearest_excluded(
    partition: Partition, reps: Sequence[int], ids: np.ndarray, X: np.ndarray, U: np.ndarray,
    member_rows: Sequence[np.ndarray] | None = None,
) -> list[NearestExcludedPair]:
    """Closest same-class point outside each size->=2 cluster's representative.

    Arguments as for ``avg_dissimilarity``.  Single-cluster classes have no
    outside points and yield an empty list.  Ties break toward the smallest
    neighbor sample_id.  Pairs come in partition order.  Each cluster's
    outside rows are compared in one matrix-vector product over ``U[outside]``
    gathered into one buffer per class by ``metric.outside_gathers``, which
    visits the clusters in its own order and copies only the rows that move.
    """
    qualifying = _qualifying(partition, reps, ids, member_rows)
    if len(partition.clusters) < 2:
        return []
    out: list[NearestExcludedPair | None] = [None] * len(qualifying)
    for i, outside, V in metric.outside_gathers(U, [rows for _, rows in qualifying]):
        rep_row = qualifying[i][0]
        d = metric.one_to_many(X[rep_row], X, U, outside, gathered=V)
        pick = metric.first_min(d, ids[outside])
        out[i] = NearestExcludedPair(int(ids[rep_row]), int(ids[outside[pick]]), float(d[pick]))
    return out


# ---------------------------------------------------------------------------
# Report emission.  All writers are deterministic: fixed key order, fixed
# float formatting, trailing newline.

def histogram_rows(histograms: Sequence[SizeHistogram]) -> list[tuple[int, int, int]]:
    return [
        (h.class_id, size, count)
        for h in sorted(histograms, key=lambda h: h.class_id)
        for size, count in sorted(h.counts.items())
    ]


def histogram_to_csv(histograms: Sequence[SizeHistogram]) -> str:
    lines = ["class_id,size,count"]
    lines += [f"{cid},{size},{count}" for cid, size, count in histogram_rows(histograms)]
    return "\n".join(lines) + "\n"


def histogram_to_table(histograms: Sequence[SizeHistogram]) -> str:
    lines = [f"{'class':>8}  {'size':>8}  {'count':>8}"]
    lines += [
        f"{cid:>8}  {size:>8}  {count:>8}" for cid, size, count in histogram_rows(histograms)
    ]
    return "\n".join(lines) + "\n"


def histogram_to_json(histograms: Sequence[SizeHistogram]) -> str:
    doc = {
        str(h.class_id): {str(size): count for size, count in sorted(h.counts.items())}
        for h in sorted(histograms, key=lambda h: h.class_id)
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dissimilarity_to_json(report: DissimilarityReport) -> str:
    doc = {
        "weighting": "class" if report.class_weighted else "cluster",
        "overall": report.overall,
        "per_class": {str(cid): report.per_class[cid] for cid in sorted(report.per_class)},
        "groups_counted": {
            str(cid): report.groups_counted[cid] for cid in sorted(report.groups_counted)
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dissimilarity_to_table(report: DissimilarityReport) -> str:
    lines = [f"{'class':>8}  {'groups':>10}  {'avg_dissimilarity':>18}"]
    for cid in sorted(report.per_class):
        lines.append(
            f"{cid:>8}  {report.groups_counted[cid]:>10}  {report.per_class[cid]:>18.6e}"
        )
    label = "mean/class" if report.class_weighted else "mean/group"
    if report.overall is not None:
        lines.append(f"{'all':>8}  {label:>10}  {report.overall:>18.6e}")
    return "\n".join(lines) + "\n"


def pairs_to_json(pairs_by_class: Mapping[int, Sequence[NearestExcludedPair]]) -> str:
    doc = {
        str(cid): [
            {
                "retained_id": p.retained_id,
                "neighbor_id": p.neighbor_id,
                "dissimilarity": p.dissimilarity,
            }
            for p in pairs_by_class[cid]
        ]
        for cid in sorted(pairs_by_class)
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def pairs_to_table(pairs_by_class: Mapping[int, Sequence[NearestExcludedPair]]) -> str:
    lines = [f"{'class':>8}  {'retained':>12}  {'neighbor':>12}  {'dissimilarity':>16}"]
    for cid in sorted(pairs_by_class):
        for p in pairs_by_class[cid]:
            lines.append(
                f"{cid:>8}  {p.retained_id:>12}  {p.neighbor_id:>12}  {p.dissimilarity:>16.6e}"
            )
    return "\n".join(lines) + "\n"
