"""Independent brute-force oracles for the package's fast code paths.

The pure-Python oracles (``cos_dissim`` through ``nearest_excluded``) use no
numpy and re-derive every statistic from first principles.
``pairwise_full_block`` keeps the first form of the pairwise matrix, so the
package's form can be held to the same bits.  The definitional ones below it
(``condensed_index``, ``cluster_dissimilarity`` and the naive engine
``agglomerate_naive``) run on the package's own pairwise values, so heights
can be compared bit for bit, but recompute every cluster distance from its
member points instead of updating it.  ``canonical_steps`` and ``replay_cut``
keep the first form of the dendrogram's steps and of the cut: a replay of
the steps over lists of members; ``steps`` reads a dendrogram's merges in
that form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from redunda import metric
from redunda.cluster import (
    Dendrogram,
    Partition,
    _check_class,
    _check_k,
)
from redunda.errors import InvalidArgumentError


def cos_dissim(a, b) -> float:
    a, b = [float(x) for x in a], [float(y) for y in b]  # float32 widens exactly
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    val = 1.0 - dot / (na * nb)
    return min(2.0, max(0.0, val))


def complete_linkage(points, k):
    """Greedy complete-linkage agglomeration with the documented tie-break.

    points: list of (sample_id, vector); returns a set of frozensets of
    sample_ids.  Tie-break: candidate key (dissimilarity, min ordinal of the
    merged pair's members, max ordinal).
    """
    n = len(points)
    ids = [sid for sid, _ in points]
    vecs = [list(map(float, v)) for _, v in points]
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}  # key = min ordinal

    def cluster_d(ca, cb):
        return max(cos_dissim(vecs[i], vecs[j]) for i in ca for j in cb)

    while len(clusters) > k:
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if a >= b:
                    continue
                key = (cluster_d(clusters[a], clusters[b]), a, b)
                if best is None or key < best:
                    best = key
        _, a, b = best
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    return {frozenset(ids[i] for i in members) for members in clusters.values()}


def medoid(members) -> int:
    """members: list of (sample_id, vector).  Smallest-id argmin to the mean."""
    dim = len(members[0][1])
    centroid = [
        sum(float(v[t]) for _, v in members) / len(members) for t in range(dim)
    ]
    best = None
    for sid, v in sorted(members, key=lambda sv: sv[0]):
        key = (cos_dissim(v, centroid), sid)
        if best is None or key < best:
            best = key
    return best[1]


def class_avg_dissim(clusters, reps, vec_of):
    """Mean over clusters of size >= 2 of mean member-to-representative
    dissimilarity; returns (class_mean, per_cluster list) or None."""
    per_cluster = []
    for ci, cluster in enumerate(clusters):
        if len(cluster) < 2:
            continue
        rep = reps[ci]
        ds = [
            cos_dissim(vec_of(sid), vec_of(rep)) for sid in sorted(cluster) if sid != rep
        ]
        per_cluster.append(sum(ds) / len(ds))
    if not per_cluster:
        return None
    return sum(per_cluster) / len(per_cluster), per_cluster


def nearest_excluded(clusters, reps, points):
    """Brute-force nearest same-class point outside each size>=2 cluster."""
    vec_of = dict(points)
    out = []
    for ci, cluster in enumerate(clusters):
        if len(cluster) < 2:
            continue
        rep = reps[ci]
        best = None
        for sid, v in points:
            if sid in cluster:
                continue
            key = (cos_dissim(vec_of[rep], v), sid)
            if best is None or key < best:
                best = key
        if best is not None:
            out.append((rep, best[1], best[0]))
    return out


def pairwise_full_block(X) -> np.ndarray:
    """``metric.pairwise_condensed`` in its first form: subtract and clip each
    whole gram panel ``U[lo:hi] @ U[lo:].T``, then copy out its upper half
    (panel column ``c`` is column ``lo + c`` of the gram matrix).

    Uses the same blocking (``metric._BLOCK_ELEMS``, read at call time), so
    the values can be compared bit for bit.  Pairs of rows equal under ``==``
    are set to exactly 0, found by comparing every pair of raw rows.
    """
    X = np.asarray(X, dtype=np.float64)
    U = metric.unit_rows(X)
    n = len(X)
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    block = max(1, metric._BLOCK_ELEMS // max(n, 1))
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        G = U[lo:hi] @ U[lo:].T
        np.subtract(1.0, G, out=G)
        np.clip(G, 0.0, 2.0, out=G)
        for i in range(lo, hi):
            start = i * n - i * (i + 1) // 2
            out[start : start + n - 1 - i] = G[i - lo, i + 1 - lo :]
    for i in range(n - 1):
        for j in np.flatnonzero((X[i + 1 :] == X[i]).all(axis=1)):
            out[condensed_index(n, i, i + 1 + int(j))] = 0.0
    return out


def condensed_index(n: int, i: int, j: int) -> int:
    """Condensed position of the (i, j) pair, i != j."""
    if i > j:
        i, j = j, i
    if i < 0 or j >= n or i == j:
        raise InvalidArgumentError(f"bad pair ({i}, {j}) for n={n}")
    return i * n - (i * (i + 1)) // 2 + (j - i - 1)


def cluster_dissimilarity(c1, c2) -> float:
    """Complete linkage: maximum pairwise dissimilarity across two point sets."""
    m1 = [np.asarray(v, dtype=np.float64) for v in c1]
    m2 = [np.asarray(v, dtype=np.float64) for v in c2]
    if not m1 or not m2:
        raise InvalidArgumentError("cluster dissimilarity needs non-empty clusters")
    return max(metric.cosine_dissimilarity(a, b) for a in m1 for b in m2)


def agglomerate_naive(X, k: int, *, sample_ids=None, class_id: int = 0):
    """Reference greedy agglomeration: scan all cluster pairs every round.

    Takes the arguments of ``agglomerate_fast`` and returns the same
    ``(Dendrogram, Partition)``.  Cluster dissimilarities are recomputed
    definitionally (max over member point pairs) after each merge,
    independent of the Lance-Williams update the engine uses.
    """
    ids, X = _check_class(X, sample_ids)
    n = len(ids)
    _check_k(n, k)
    cond = metric.pairwise_condensed(X)
    offs = metric.condensed_offsets(n)
    P = np.zeros((n, n), dtype=np.float64)  # point-level, both triangles
    for i in range(n - 1):
        seg = cond[offs[i] : offs[i] + n - 1 - i]
        P[i, i + 1 :] = seg
        P[i + 1 :, i] = seg
    S = P.copy()  # cluster-level; slot index == min member ordinal
    np.fill_diagonal(S, np.inf)
    members: list[list[int] | None] = [[i] for i in range(n)]
    alive = np.ones(n, dtype=bool)
    raw: list[tuple[float, int, int]] = []

    for _ in range(n - k):
        # Row-major argmin lands on the upper-triangle cell of the
        # lexicographically smallest tied (i, j): i*n+j is monotone in (i, j)
        # and each pair's upper cell precedes its mirror.  That is exactly
        # the documented tie-break, since slot index == min member ordinal.
        i, j = divmod(int(np.argmin(S)), n)
        raw.append((float(S[i, j]), i, j))
        mi, mj = members[i], members[j]
        mi.extend(mj)
        members[j] = None
        alive[j] = False
        S[j, :] = np.inf
        S[:, j] = np.inf
        rows_i = np.array(mi, dtype=np.intp)
        for x in np.flatnonzero(alive):
            if x != i:
                d = float(P[np.ix_(rows_i, np.array(members[x], dtype=np.intp))].max())
                S[i, x] = d
                S[x, i] = d

    merges = np.array(raw, dtype=np.float64).reshape(-1, 3)
    dendro = Dendrogram(class_id, ids, merges[:, 0], merges[:, 1:].astype(np.int64))
    clusters = sorted(
        (frozenset(int(ids[m]) for m in lst) for lst in members if lst is not None),
        key=min,
    )
    return dendro, Partition.from_groups(class_id, ids, clusters)


@dataclass(frozen=True)
class MergeStep:
    """One merge: clusters ``left`` and ``right`` join at ``height`` into ``new_id``."""

    left: int
    right: int
    height: float
    new_id: int


def canonical_steps(n: int, raw) -> tuple[MergeStep, ...]:
    """Merges ``(height, a, b)`` in key order, a < b their clusters' smallest
    ordinals, renumbered one at a time: refs 0..n-1 are the points, merge i
    makes ref n + i, and ``left < right``."""
    out = []
    current: dict[int, int] = {}  # smallest ordinal -> current cluster ref
    for i, (height, lo, hi) in enumerate(raw):
        left, right = sorted((current.get(lo, lo), current.get(hi, hi)))
        out.append(MergeStep(left, right, float(height), n + i))
        current[lo] = n + i
        current.pop(hi, None)
    return tuple(out)


def steps(dendro: Dendrogram) -> tuple[MergeStep, ...]:
    """The dendrogram's merges as canonical steps."""
    heights, (lo, hi) = dendro.heights.tolist(), dendro.pairs.T.tolist()
    return canonical_steps(len(dendro.sample_ids), zip(heights, lo, hi))


def replay_cut(steps, sample_ids, k: int) -> tuple[frozenset[int], ...]:
    """Replay canonical steps from singletons until ``k`` clusters remain;
    the clusters' sample ids, ordered by smallest member."""
    n = len(sample_ids)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for step in steps[: n - k]:
        left = members.pop(step.left)
        left.extend(members.pop(step.right))
        members[step.new_id] = left
    return tuple(sorted(
        (frozenset(int(sample_ids[m]) for m in lst) for lst in members.values()), key=min
    ))
