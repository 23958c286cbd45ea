"""Complete-linkage agglomerative clustering, naive and nearest-neighbor-chain.

Both engines merge until exactly k clusters remain and break dissimilarity
ties identically, so they produce the same partition and the same canonical
dendrogram on every input.  The tie-break key for a candidate merge is

    (dissimilarity, min(ref(A), ref(B)), max(ref(A), ref(B)))

where ``ref(C)`` is the smallest input ordinal among C's members.  This key
is intrinsic to the cluster *contents* (not to the order merges happened to
be discovered), which is what makes the greedy naive order and the chain
order provably interchangeable: complete linkage is reducible, and with a
strict total order on candidate pairs the merge set is unique.

Recorded merge steps are canonicalized by sorting on that same key and
renumbering new clusters n, n+1, ... in sorted order.  Children always sort
before their parents (a parent's height is >= each child's height, and at
equal heights the parent's ref pair is lexicographically larger), so the
canonical step sequence is a valid bottom-up replay order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metric
from .errors import InvalidArgumentError, MemoryCapError

DEFAULT_MEMORY_CAP = 8 << 30  # bytes of condensed pairwise distances per class


@dataclass(frozen=True)
class MergeStep:
    """One merge: clusters ``left`` and ``right`` join at ``height`` into ``new_id``."""

    left: int
    right: int
    height: float
    new_id: int


@dataclass(frozen=True)
class Dendrogram:
    """Canonical merge record for one class.

    Cluster refs 0..n_points-1 are singletons in input order (positions in
    ``sample_ids``); refs n_points, n_points+1, ... are merged clusters in
    canonical step order.
    """

    class_id: int
    n_points: int
    sample_ids: tuple[int, ...]
    steps: tuple[MergeStep, ...]


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of one class's sample ids; clusters ordered by smallest member."""

    class_id: int
    clusters: tuple[frozenset[int], ...]

    def sizes(self) -> list[int]:
        return [len(c) for c in self.clusters]

    def member_rows(self, sample_ids: np.ndarray) -> list[np.ndarray]:
        """Per cluster, the positions of its members in ``sample_ids`` (the
        class's ids in row order), ascending by sample id."""
        sample_ids = np.asarray(sample_ids, dtype=np.int64)
        members = [sorted(c) for c in self.clusters]
        flat = np.array([sid for m in members for sid in m], dtype=np.int64)
        order = np.argsort(sample_ids, kind="stable")
        pos = np.searchsorted(sample_ids[order], flat)
        rows = order[np.minimum(pos, len(order) - 1)]
        if not np.array_equal(sample_ids[rows], flat):
            raise InvalidArgumentError("partition names a sample_id outside the class")
        return np.split(rows, np.cumsum([len(m) for m in members])[:-1])


def _check_class(X, sample_ids) -> tuple[np.ndarray, np.ndarray]:
    """Validate one class's rows; ``sample_ids`` defaults to row positions."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise InvalidArgumentError("need a non-empty 2-d array of row vectors")
    ids = np.arange(len(X)) if sample_ids is None else np.asarray(sample_ids, dtype=np.int64)
    if ids.shape != (len(X),) or len(np.unique(ids)) != len(ids):
        raise InvalidArgumentError("need one distinct sample_id per row")
    if not np.isfinite(X).all():
        raise InvalidArgumentError("non-finite vector component")
    return ids, X


def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"k={k} outside valid range [1, {n}]")


def _canonical_steps(n: int, raw: list[tuple[float, int, int]]) -> tuple[MergeStep, ...]:
    """Sort raw merges by key and renumber; refs in ``raw`` are min-member ordinals."""
    out = []
    current: dict[int, int] = {}  # min-member ordinal -> current cluster ref
    for i, (height, lo, hi) in enumerate(sorted(raw)):
        left = current.get(lo, lo)
        right = current.get(hi, hi)
        if left > right:
            left, right = right, left
        new_id = n + i
        out.append(MergeStep(left, right, float(height), new_id))
        current[lo] = new_id  # union keeps the smaller ordinal as its key
        current.pop(hi, None)
    return tuple(out)


def _assemble(
    class_id: int,
    ids: np.ndarray,
    raw: list[tuple[float, int, int]],
    member_lists: list[list[int] | None],
) -> tuple[Dendrogram, Partition]:
    dendro = Dendrogram(
        class_id, len(ids), tuple(int(s) for s in ids), _canonical_steps(len(ids), raw)
    )
    clusters = sorted(
        (frozenset(int(ids[m]) for m in lst) for lst in member_lists if lst is not None),
        key=min,
    )
    return dendro, Partition(class_id, tuple(clusters))


def agglomerate_naive(
    X, k: int, *, sample_ids=None, class_id: int = 0
) -> tuple[Dendrogram, Partition]:
    """Reference greedy agglomeration: scan all cluster pairs every round.

    ``X`` holds one row per point; ``sample_ids`` (row positions when
    omitted) name the points in the partition and dendrogram.  Cluster
    dissimilarities are recomputed definitionally (max over member point
    pairs) after each merge, independent of the Lance-Williams update the
    fast path uses.
    """
    ids, X = _check_class(X, sample_ids)
    n = len(ids)
    _check_k(n, k)
    if k == n:
        return _assemble(class_id, ids, [], [[i] for i in range(n)])

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
        h = float(S[i, j])
        raw.append((h, i, j))

        mi, mj = members[i], members[j]
        assert mi is not None and mj is not None
        mi.extend(mj)
        members[j] = None
        alive[j] = False
        S[j, :] = np.inf
        S[:, j] = np.inf
        rows_i = np.array(mi, dtype=np.intp)
        for x in np.flatnonzero(alive):
            if x == i:
                continue
            mx = members[x]
            assert mx is not None
            d = float(P[np.ix_(rows_i, np.array(mx, dtype=np.intp))].max())
            S[i, x] = d
            S[x, i] = d

    return _assemble(class_id, ids, raw, members)


def agglomerate_fast(
    X,
    k: int,
    *,
    sample_ids=None,
    class_id: int = 0,
    memory_cap_bytes: int | None = None,
) -> tuple[Dendrogram, Partition]:
    """Nearest-neighbor-chain agglomeration over a condensed distance matrix.

    Takes the same arguments as ``agglomerate_naive``.  O(n^2) after the
    distance build.  Produces the same partition and canonical dendrogram as
    ``agglomerate_naive`` (see module docstring).
    """
    ids, X = _check_class(X, sample_ids)
    n = len(ids)
    _check_k(n, k)
    cap = DEFAULT_MEMORY_CAP if memory_cap_bytes is None else memory_cap_bytes
    need = n * (n - 1) // 2 * 8
    if need > cap:
        raise MemoryCapError(
            f"pairwise matrix for n={n} needs {need} bytes, over cap {cap}"
        )
    if k == n:
        return _assemble(class_id, ids, [], [[i] for i in range(n)])

    D = metric.pairwise_condensed(X)  # mutated in place by Lance-Williams updates
    offs = metric.condensed_offsets(n)
    base = offs - np.arange(n, dtype=np.int64) - 1  # cond(j, x) = base[j] + x for j < x

    alive = np.ones(n, dtype=bool)
    raw: list[tuple[float, int, int]] = []
    chain: list[int] = []

    def gather(a: int) -> np.ndarray:
        """Row ``a`` of the cluster distance matrix; dead slots read +inf."""
        row = np.empty(n, dtype=np.float64)
        if a > 0:
            row[:a] = D[base[:a] + a]
        row[a] = np.inf
        if a < n - 1:
            row[a + 1 :] = D[offs[a] : offs[a] + n - 1 - a]
        row[~alive] = np.inf
        return row

    def scatter(a: int, row: np.ndarray) -> None:
        if a > 0:
            D[base[:a] + a] = row[:a]
        if a < n - 1:
            D[offs[a] : offs[a] + n - 1 - a] = row[a + 1 :]

    # The chain discovers mutual-NN merges out of height order, so it must
    # run to completion; the first n-k merges of the *sorted* sequence are
    # then exactly the greedy engine's first n-k merges.
    while len(raw) < n - 1:
        if not chain:
            chain.append(int(np.argmax(alive)))
        a = chain[-1]
        row_a = gather(a)
        b = int(np.argmin(row_a))  # first minimum == smallest partner slot on ties
        if len(chain) >= 2 and b == chain[-2]:
            h = float(row_a[b])
            u, v = (a, b) if a < b else (b, a)
            raw.append((h, u, v))
            merged = np.maximum(row_a, gather(b))
            scatter(u, merged)
            alive[v] = False
            chain.pop()
            chain.pop()
        else:
            chain.append(b)

    steps = _canonical_steps(n, raw)[: n - k]
    dendro = Dendrogram(class_id, n, tuple(int(s) for s in ids), steps)
    return dendro, cut_dendrogram(dendro, k)


def cut_dendrogram(dendrogram: Dendrogram, k: int) -> Partition:
    """Replay canonical steps until ``k`` clusters remain."""
    n = dendrogram.n_points
    lo = n - len(dendrogram.steps)
    if not lo <= k <= n:
        raise InvalidArgumentError(
            f"k={k} outside achievable range [{lo}, {n}] for this dendrogram"
        )
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for step in dendrogram.steps[: n - k]:
        left = members.pop(step.left)
        left.extend(members.pop(step.right))
        members[step.new_id] = left
    clusters = sorted(
        (frozenset(dendrogram.sample_ids[m] for m in lst) for lst in members.values()),
        key=min,
    )
    return Partition(dendrogram.class_id, tuple(clusters))


def format_dendrogram(dendrogram: Dendrogram) -> str:
    """Debug dump: one line per step, ``left right height new_id``."""
    lines = [
        f"{s.left} {s.right} {s.height:.17g} {s.new_id}" for s in dendrogram.steps
    ]
    return "\n".join(lines) + ("\n" if lines else "")
