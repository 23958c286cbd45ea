"""Complete-linkage agglomerative clustering, stopped at the cut.

Both engines merge in the strict total order of the candidate key

    (dissimilarity, min(ref(A), ref(B)), max(ref(A), ref(B)))

where ``ref(C)`` is the smallest input ordinal among C's members.  This key
is intrinsic to the cluster *contents*, so the merge sequence is unique and
equals that of the greedy scan of all cluster pairs.  Merges come out in key
order, so an engine stops after the n - k merges a cut at k clusters keeps.

The threshold engine runs first.  A cut that keeps most points only ever
needs the smallest few cells of the condensed matrix, so it never builds
that matrix: ``metric.smallest_pairs`` screens the blocked gram product as
it is computed and keeps every cell at or below one bound, at most
``_PAIRS_PER_POINT * n`` of them, with the bits the matrix would hold.  The
engine takes those cells in ascending order and counts, per cluster pair,
the member pairs taken; a pair is a candidate once all of them are in.
Before the smallest candidate at height h is taken, every cell <= h is in,
so any cluster pair still incomplete has a cell above h and a height above
h: the merges and their height bits are exactly the generic algorithm's
(see ``_threshold_merges``).  It gives up when the next merge lies above
the bound, which dense thresholds (low fractions) reach.

Only then is the condensed matrix built, O(n^2) memory, and the dense loop
(Müllner 2011, "Modern hierarchical, agglomerative clustering algorithms",
§3, the generic algorithm) runs on it: O(n^2) for each slot's first row
minimum, then O(n) per merge taken plus the stale heap entries it pops.

The dendrogram keeps the merges in that key order as arrays, which the cut
reads and the debug dump renumbers as it prints them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from . import metric
from .errors import InvalidArgumentError, MemoryCapError

DEFAULT_MEMORY_CAP = 8 << 30  # bytes of condensed pairwise distances per class

# The threshold engine reads at most this many cells per point before it gives
# the class to the dense loop.  The planted-groups bench needs 5.0 per point;
# a give-up costs about a fifth of the dense loop it precedes.
_PAIRS_PER_POINT = 8


def _same(self, other) -> bool:
    """``==`` for a record of ints and arrays: same type, every field equal."""
    return type(other) is type(self) and all(
        np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
    )


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Merges of one class in key order: merge i joins, at ``heights[i]``, the
    clusters whose smallest rows are ``pairs[i]`` (a < b); row r holds sample
    ``sample_ids[r]``."""

    class_id: int
    sample_ids: np.ndarray
    heights: np.ndarray
    pairs: np.ndarray

    __eq__ = _same


@dataclass(frozen=True, eq=False)
class Partition:
    """Clusters of one class, whose ids in row order are ``sample_ids``:
    cluster i's rows are ``order[starts[i]:starts[i + 1]]``, ascending by
    sample id.  A cut covers the class, clusters ordered by smallest id."""

    class_id: int
    sample_ids: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    __eq__ = _same

    @classmethod
    def from_groups(cls, class_id: int, sample_ids, groups) -> Partition:
        """The disjoint groups of sample ids given, in their order, over the
        class's ``sample_ids`` (row order); a group may be empty and need not
        cover."""
        ids = metric.as_ids(sample_ids, InvalidArgumentError, "sample_ids[{}]")
        members = [sorted(g) for g in groups]
        row = {sid: r for r, sid in enumerate(ids.tolist())}
        if not all(sid in row for m in members for sid in m):
            raise InvalidArgumentError("partition names a sample_id outside the class")
        rows = np.array([row[sid] for m in members for sid in m], dtype=np.intp)
        if len(np.unique(rows)) != len(rows):
            raise InvalidArgumentError("partition names a sample_id twice")
        return cls(class_id, ids, rows, np.cumsum([0, *map(len, members)]))

    def sizes(self) -> np.ndarray:
        return np.diff(self.starts)


def _check_class(X, sample_ids) -> tuple[np.ndarray, np.ndarray]:
    """Validate one class's rows, kept in their precision (``metric.as_rows``);
    ``sample_ids`` defaults to row positions."""
    X = metric.as_rows(X)
    if X.ndim != 2 or len(X) == 0:
        raise InvalidArgumentError("need a non-empty 2-d array of row vectors")
    ids = np.arange(len(X)) if sample_ids is None else sample_ids
    ids = metric.as_ids(ids, InvalidArgumentError, "sample_ids[{}]")
    if ids.shape != (len(X),) or len(np.unique(ids)) != len(ids):
        raise InvalidArgumentError("need one distinct sample_id per row")
    if fault := metric.first_without_direction(X):
        raise InvalidArgumentError("row %d: %s" % fault)
    return ids, X


def _check_k(n: int, k, lo: int = 1) -> None:
    if not (isinstance(k, (int, np.integer)) and lo <= k <= n):
        raise InvalidArgumentError(f"k must be an integer in [{lo}, {n}], got {k}")


def _generic_merges(D: np.ndarray, n: int, merges: int) -> list[tuple[float, int, int]]:
    """The first ``merges`` merges in key order, as ``(height, a, b)`` with a < b.

    ``D`` is the condensed matrix, updated in place; slot ``a`` stands for the
    cluster whose smallest member ordinal is ``a``.  A heap holds one entry per
    live slot: the minimum of its upper-row segment, whose first argmin gives
    ties to the smallest partner.  Merges only raise heights, so every entry
    is a lower bound on its slot's current minimum, and an entry that still
    matches ``D`` when popped is the smallest key of all.
    """
    offs = metric.condensed_offsets(n)
    base = offs - np.arange(n, dtype=np.int64) - 1  # cond(u, v) = base[u] + v for u < v
    alive = [True] * n
    heap: list[tuple[float, int, int]] = []

    def push_row_min(a: int) -> None:
        seg = D[offs[a] : offs[a] + n - 1 - a]
        if seg.size:
            j = int(np.argmin(seg))
            if seg[j] < np.inf:  # +inf: no live partner above a
                heapq.heappush(heap, (float(seg[j]), a, a + 1 + j))

    for a in range(n - 1):
        push_row_min(a)
    raw: list[tuple[float, int, int]] = []
    while len(raw) < merges:
        h, a, b = heapq.heappop(heap)
        if not alive[a]:
            continue
        if D[base[a] + b] != h:  # the partner died or the pair's height grew
            push_row_min(a)
            continue
        raw.append((h, a, b))
        # Lance-Williams for complete linkage, b folded into a (a < b):
        # the column part D[u, a] for u < a, the middle part D[a, u] for
        # a < u < b, and the tail D[a, u] for u > b.
        col = base[:a] + a
        D[col] = np.maximum(D[col], D[base[:a] + b])
        mid = D[offs[a] : base[a] + b]
        np.maximum(mid, D[base[a + 1 : b] + b], out=mid)
        tail = D[base[a] + b + 1 : offs[a] + n - 1 - a]
        np.maximum(tail, D[offs[b] : offs[b] + n - 1 - b], out=tail)
        D[base[:b] + b] = np.inf  # every cell of a dead slot reads +inf
        D[offs[b] : offs[b] + n - 1 - b] = np.inf
        alive[b] = False
        push_row_min(a)
    return raw


def _threshold_merges(
    n: int, merges: int, cells: np.ndarray, heights: np.ndarray
) -> list[tuple[float, int, int]] | None:
    """The first ``merges`` merges in key order, built from the pairs below
    the cut only; None if they need a pair above the bound of the one read.

    ``cells`` and ``heights`` are what ``metric.smallest_pairs`` returns: the
    condensed index and value of every pair at or below one bound, in
    ascending ``(value, index)`` order, and the engine takes them in that
    order.  For each pair of live slots it keeps ``[height, pairs read]``,
    one list shared by both slots' dicts; the pair goes on the heap once all
    ``|A|·|C|`` of its member pairs are read, at the largest of their
    values, which is its complete-linkage height.  Every height on the heap
    is at or below the bound, so before the heap top at height ``h`` is
    taken, every pair with ``D <= h`` is read.  Any cluster pair not yet
    complete then has an unread member pair above ``h``, so its height is
    above ``h`` too, and the top is the smallest key of all: the merge
    ``_generic_merges`` takes, with the same height bits.
    """
    offs = metric.condensed_offsets(n)
    base = offs - np.arange(n, dtype=np.int64) - 1
    rows = np.searchsorted(offs, cells, side="right") - 1
    hs, ii, jj = heights.tolist(), rows.tolist(), (cells - base[rows]).tolist()
    parent = list(range(n))  # union-find; a root is its cluster's slot
    size = [1] * n
    links: list[dict[int, list]] = [{} for _ in range(n)]
    heap: list[tuple[float, int, int]] = []
    raw: list[tuple[float, int, int]] = []
    p = 0

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while len(raw) < merges:
        if p < len(hs) and (not heap or hs[p] <= heap[0][0]):
            d, a, c = hs[p], find(ii[p]), find(jj[p])
            p += 1
            if a > c:
                a, c = c, a
            e = links[a].get(c)
            if e is None:
                e = links[a][c] = links[c][a] = [d, 0]
            e[0] = d  # pairs come in ascending order
            e[1] += 1
            if e[1] == size[a] * size[c]:
                heapq.heappush(heap, (d, a, c))
        elif heap:
            h, a, b = heapq.heappop(heap)
            e = links[a].get(b)
            if e is None or e[0] != h or e[1] != size[a] * size[b]:
                continue  # a slot died, or the pair grew since it was pushed
            raw.append((h, a, b))
            parent[b] = a
            la, lb = links[a], links[b]
            links[b] = {}
            del la[b]
            grown = size[a] + size[b]
            for c, eb in lb.items():
                if c == a:
                    continue
                lc = links[c]
                del lc[b]
                ea = la.get(c)
                if ea is None:
                    la[c] = lc[a] = eb  # incomplete: A's pairs with C are unread
                    continue
                ea[0] = max(ea[0], eb[0])
                ea[1] += eb[1]
                if ea[1] == grown * size[c]:
                    heapq.heappush(heap, (ea[0], min(a, c), max(a, c)))
            size[a] = grown
        else:
            return None
    return raw


def agglomerate_fast(
    X,
    k: int,
    *,
    sample_ids=None,
    class_id: int = 0,
    memory_cap_bytes: int | None = None,
    U=None,
) -> tuple[Dendrogram, Partition]:
    """Merge the rows of ``X`` by complete linkage until ``k`` clusters remain.

    ``sample_ids`` (row positions when omitted) name the points in the
    partition and dendrogram.  ``U`` is ``metric.unit_rows(X)`` when the
    caller already holds it, and is computed when omitted.  Every row of ``X``
    is checked for a direction whether or not ``U`` is given; beyond that
    ``X`` is read in its own precision, for exact twins only.  Takes the n - k
    merges kept, so the dendrogram holds exactly those.  The threshold engine
    takes them from the at most ``_PAIRS_PER_POINT * n`` smallest pairwise
    cells, read from the blocked gram product one block at a time.  If a
    merge needs a cell above those it gives up; only then is the condensed
    distance matrix built, O(n^2), and the generic algorithm's dense loop
    takes the merges from it at O(n) per merge.  Both give the same merges
    with the same height bits.  The memory cap bounds the condensed matrix,
    checked only when a give-up is about to build it.
    """
    ids, X = _check_class(X, sample_ids)
    n = len(ids)
    _check_k(n, k)
    if U is not None and np.shape(U) != X.shape:
        raise InvalidArgumentError(f"unit rows {np.shape(U)} do not match rows {X.shape}")
    raw = []
    if k < n:
        U = metric.unit_rows(X) if U is None else U
        _, cells, heights = metric.smallest_pairs(X, U, _PAIRS_PER_POINT * n)
        raw = _threshold_merges(n, n - k, cells, heights)
        if raw is None:
            cap = DEFAULT_MEMORY_CAP if memory_cap_bytes is None else memory_cap_bytes
            if (need := n * (n - 1) // 2 * 8) > cap:
                raise MemoryCapError(f"pairwise matrix for n={n} needs {need} bytes, over cap {cap}")
            raw = _generic_merges(metric.pairwise_condensed(X, U), n, n - k)
    raw = np.fromiter(chain.from_iterable(raw), np.float64, 3 * len(raw)).reshape(-1, 3)
    dendro = Dendrogram(class_id, ids, raw[:, 0], raw[:, 1:].astype(np.int64))
    return dendro, cut_dendrogram(dendro, k)


def cut_dendrogram(dendrogram: Dendrogram, k: int) -> Partition:
    """The partition after the first n - k merges.  Merge (a, b) points row b
    at row a < b, so pointer jumping takes every row to its cluster's smallest
    row; one sort by (the cluster's smallest sample id, sample id) groups them."""
    n = len(dendrogram.sample_ids)
    _check_k(n, k, n - len(dendrogram.heights))
    ids, (a, b) = dendrogram.sample_ids, dendrogram.pairs[: n - k].T
    root = np.arange(n)
    root[b] = a
    while not np.array_equal(up := root[root], root):
        root = up
    low = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(low, root, ids)
    order = np.lexsort((ids, low[root]))
    key = low[root[order]]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1], True])
    return Partition(dendrogram.class_id, ids, order, starts)


def format_dendrogram(dendrogram: Dendrogram) -> str:
    """Debug dump: one line per merge, ``left right height new_id``, with the
    merges renumbered as they are printed: refs 0..n-1 are the n rows,
    merge i makes ref n + i, and ``left < right``.  Children always
    come before their parents (a parent's height is >= each child's, and at
    equal heights its ref pair is lexicographically larger), so the lines are
    a valid bottom-up replay order."""
    n, lines = len(dendrogram.sample_ids), []
    current: dict[int, int] = {}  # smallest row -> current cluster ref
    heights, pairs = dendrogram.heights.tolist(), dendrogram.pairs.tolist()
    for new_id, h, (lo, hi) in zip(range(n, 2 * n), heights, pairs):
        left, right = sorted((current.get(lo, lo), current.get(hi, hi)))
        lines.append(f"{left} {right} {h:.17g} {new_id}")
        current[lo] = new_id  # union keeps the smaller row as its key
        current.pop(hi, None)
    return "\n".join(lines) + ("\n" if lines else "")
