"""Redundancy analytics: size histograms, dissimilarity to the retained
sample, and nearest excluded neighbors."""

from __future__ import annotations

import contextlib
import json
from typing import Mapping, Sequence

import numpy as np

from . import metric
from .cluster import Partition
from .errors import InvalidArgumentError


def size_histogram(partition: Partition) -> dict[int, int]:
    """``{cluster size: number of clusters}`` of one class, ascending by size."""
    sizes, counts = np.unique(partition.sizes(), return_counts=True)
    return dict(zip(sizes.tolist(), counts.tolist()))


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
) -> tuple[float, ...]:
    """Each size->=2 cluster's mean dissimilarity of its other members to its
    retained sample, in partition order: the class's dissimilarity entry.

    ``reps`` holds each cluster's retained sample id, in partition order;
    ``X`` and ``U`` are the class's rows and unit rows, in the row order of
    ``partition.sample_ids``.  Each cluster's other members are compared in
    one product over ``U[others]``, copied here.  Empty when no cluster
    qualifies (the writers leave the class out, not 0).
    """
    qualifying = _qualifying(partition, reps, X, U)
    twins = metric.twin_index(X)
    cluster_means: list[float] = []
    for rep_row, rows in qualifying:
        others = rows[rows != rep_row]
        at = np.flatnonzero(np.isin(others, twins[rep_row])) if rep_row in twins else ()
        d = metric.one_to_many(X[rep_row], U[others], at)
        cluster_means.append(float(d.mean()))
    return tuple(cluster_means)


def nearest_excluded(
    partition: Partition, reps: Sequence[int], X: np.ndarray, U: np.ndarray
) -> tuple[tuple[int, int, float], ...]:
    """Closest same-class point outside each size->=2 cluster's representative,
    as ``(retained_id, neighbor_id, dissimilarity)``: the class's pairs entry.

    Arguments as for ``avg_dissimilarity``, but ``U`` must be as ``unit_rows``
    returns it (C-contiguous, writable, its own): ``metric.outside_gathers``
    lays each cluster's outside rows out in ``U`` itself for one product, and
    puts ``U`` back.  Single-cluster classes yield ``()``.  Ties break
    toward the smallest neighbor sample_id.  Pairs come in partition order.
    """
    if not (U.flags.c_contiguous and U.flags.writeable) or np.may_share_memory(U, X):
        raise InvalidArgumentError("unit rows must be a C-contiguous, writable array of their own")
    qualifying = _qualifying(partition, reps, X, U)
    if len(partition.starts) < 3:
        return ()
    ids = partition.sample_ids
    twins = metric.twin_index(X)
    out: list = [None] * len(qualifying)
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
            out[i] = (int(ids[rep_row]), int(ids[rows].min()), float(d[best[0]]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Report emission.  Each writer takes ``{class_id: that class's entry}`` and
# is deterministic: ascending classes, fixed key order, fixed float
# formatting, trailing newline.

def histogram_rows(histograms: Mapping[int, Mapping[int, int]]) -> list[tuple[int, int, int]]:
    return [
        (cid, size, count)
        for cid in sorted(histograms)
        for size, count in sorted(histograms[cid].items())
    ]


def histogram_to_csv(histograms: Mapping[int, Mapping[int, int]]) -> str:
    lines = ["class_id,size,count"]
    lines += [f"{cid},{size},{count}" for cid, size, count in histogram_rows(histograms)]
    return "\n".join(lines) + "\n"


def histogram_to_table(histograms: Mapping[int, Mapping[int, int]]) -> str:
    lines = [f"{'class':>8}  {'size':>8}  {'count':>8}"]
    lines += [
        f"{cid:>8}  {size:>8}  {count:>8}" for cid, size, count in histogram_rows(histograms)
    ]
    return "\n".join(lines) + "\n"


def histogram_to_json(histograms: Mapping[int, Mapping[int, int]]) -> str:
    doc = {
        str(cid): {str(size): count for size, count in sorted(histograms[cid].items())}
        for cid in sorted(histograms)
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _reported(
    entries: Mapping[int, Sequence[float]], class_weighted: bool
) -> tuple[dict[int, Sequence[float]], float | None]:
    """The entries holding a cluster mean, in ascending class order, and
    ``overall``: the mean over their cluster means, or over their class means
    when ``class_weighted``, in that order; None for no such entry."""
    kept = {cid: e for cid, e in sorted(entries.items()) if len(e)}
    means = [np.mean(e) for e in kept.values()] if class_weighted else list(kept.values())
    return kept, float(np.mean(np.hstack(means))) if kept else None


def dissimilarity_to_json(
    entries: Mapping[int, Sequence[float]], *, class_weighted: bool = False
) -> str:
    entries, overall = _reported(entries, class_weighted)
    doc = {
        "weighting": "class" if class_weighted else "cluster",
        "overall": overall,
        "per_class": {str(cid): float(np.mean(e)) for cid, e in entries.items()},
        "groups_counted": {str(cid): len(e) for cid, e in entries.items()},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dissimilarity_to_table(
    entries: Mapping[int, Sequence[float]], *, class_weighted: bool = False
) -> str:
    entries, overall = _reported(entries, class_weighted)
    lines = [f"{'class':>8}  {'groups':>10}  {'avg_dissimilarity':>18}"]
    for cid, e in entries.items():
        lines.append(f"{cid:>8}  {len(e):>10}  {float(np.mean(e)):>18.6e}")
    label = "mean/class" if class_weighted else "mean/group"
    if overall is not None:
        lines.append(f"{'all':>8}  {label:>10}  {overall:>18.6e}")
    return "\n".join(lines) + "\n"


def pairs_to_json(pairs_by_class: Mapping[int, Sequence[tuple[int, int, float]]]) -> str:
    doc = {
        str(cid): [
            {"retained_id": retained, "neighbor_id": neighbor, "dissimilarity": d}
            for retained, neighbor, d in pairs_by_class[cid]
        ]
        for cid in sorted(pairs_by_class)
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def pairs_to_table(pairs_by_class: Mapping[int, Sequence[tuple[int, int, float]]]) -> str:
    lines = [f"{'class':>8}  {'retained':>12}  {'neighbor':>12}  {'dissimilarity':>16}"]
    for cid in sorted(pairs_by_class):
        for retained, neighbor, d in pairs_by_class[cid]:
            lines.append(f"{cid:>8}  {retained:>12}  {neighbor:>12}  {d:>16.6e}")
    return "\n".join(lines) + "\n"
