"""Redundancy analytics: size histograms, dissimilarity to the retained
sample, and nearest excluded neighbors."""

from __future__ import annotations

import contextlib
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
    sizes, counts = np.unique(partition.sizes(), return_counts=True)
    return SizeHistogram(partition.class_id, dict(zip(sizes.tolist(), counts.tolist())))


def _qualifying(partition: Partition, reps: Sequence[int], X, U) -> list[tuple[int, np.ndarray]]:
    """``(rep row, member rows)`` of each cluster of size >= 2, in partition
    order; member rows ascend by sample id.  Refuses a ``U`` not shaped as
    ``X``, and a ``reps`` that does not name one member of each cluster."""
    if np.shape(U) != np.shape(X):
        raise InvalidArgumentError(f"unit rows {np.shape(U)} do not match rows {np.shape(X)}")
    sizes, order, s = partition.sizes(), partition.order, partition.starts
    if len(reps) != len(sizes):
        raise InvalidArgumentError(f"{len(reps)} representatives for {len(sizes)} clusters")
    reps = np.asarray(reps)  # no dtype: a rep beyond int64 is refused below as no member
    at = np.repeat(np.arange(len(sizes)), sizes)  # the cluster of each entry of ``order``
    hit = np.flatnonzero(partition.sample_ids[order] == reps[at])
    rows = np.full(len(sizes), -1)
    rows[at[hit]] = order[hit]
    if len(bad := np.flatnonzero(rows < 0)):
        ci = bad[0]
        raise InvalidArgumentError(f"representative {reps[ci]} is not a member of cluster {ci}")
    return [(int(rows[i]), order[s[i] : s[i + 1]]) for i in np.flatnonzero(sizes >= 2)]


def avg_dissimilarity(
    partition: Partition, reps: Sequence[int], X: np.ndarray, U: np.ndarray
) -> ClassDissimilarity | None:
    """Average dissimilarity to the retained sample over clusters of size >= 2.

    ``reps`` holds each cluster's retained sample id, in partition order;
    ``X`` and ``U`` are the class's rows and unit rows, in the row order of
    ``partition.sample_ids``.  Each cluster's other members are compared in
    one product over ``U[others]``, copied here.  None when no cluster
    qualifies (the class is left out, not 0).
    """
    qualifying = _qualifying(partition, reps, X, U)
    twins = metric.twin_index(X)
    cluster_means: list[float] = []
    for rep_row, rows in qualifying:
        others = rows[rows != rep_row]
        at = np.flatnonzero(np.isin(others, twins[rep_row])) if rep_row in twins else ()
        d = metric.one_to_many(X[rep_row], U[others], at)
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
    partition: Partition, reps: Sequence[int], X: np.ndarray, U: np.ndarray
) -> list[NearestExcludedPair]:
    """Closest same-class point outside each size->=2 cluster's representative.

    Arguments as for ``avg_dissimilarity``, but ``U`` must be as ``unit_rows``
    returns it (C-contiguous, writable, its own): ``metric.outside_gathers``
    lays each cluster's outside rows out in ``U`` itself for one product, and
    puts ``U`` back.  Single-cluster classes yield an empty list.  Ties break
    toward the smallest neighbor sample_id.  Pairs come in partition order.
    """
    if not (U.flags.c_contiguous and U.flags.writeable) or np.may_share_memory(U, X):
        raise InvalidArgumentError("unit rows must be a C-contiguous, writable array of their own")
    qualifying = _qualifying(partition, reps, X, U)
    if len(partition.starts) < 3:
        return []
    ids = partition.sample_ids
    twins = metric.twin_index(X)
    out: list[NearestExcludedPair | None] = [None] * len(qualifying)
    with contextlib.closing(metric.outside_gathers(U, [rows for _, rows in qualifying])) as walk:
        for i, members, V in walk:
            rep_row = qualifying[i][0]
            at = ()
            if rep_row in twins:
                tw = twins[rep_row][~np.isin(twins[rep_row], members)]
                at = tw - np.searchsorted(members, tw)
            d = metric.one_to_many(X[rep_row], V, at)
            best = np.flatnonzero(d == d.min())
            rows = best + np.searchsorted(members - np.arange(len(members)), best, "right")
            out[i] = NearestExcludedPair(int(ids[rep_row]), int(ids[rows].min()), float(d[best[0]]))
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
