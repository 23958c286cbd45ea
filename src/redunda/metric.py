"""Cosine dissimilarity kernels and the condensed pairwise matrix.

All dissimilarities are clamped to ``[0, 2]``: floating-point rounding can
otherwise push ``1 - cos`` marginally outside the mathematical range for
near-identical or near-opposite directions.
"""

from __future__ import annotations

import contextlib
import math
import mmap

import numpy as np

from .errors import InvalidArgumentError

MIN_NORM = 1e-30

# Rows per block of the gram product; bounds the size of the intermediate
# gram panel to roughly block * n doubles.
_BLOCK_ELEMS = 1 << 21
_SAMPLE_CELLS = 1 << 16  # size of the strided sample that sets the start bound
_NORM_ELEMS = 1 << 16  # elements per chunk that ``_row_norms`` widens


def _clamp(value: float) -> float:
    return 0.0 if value < 0.0 else (2.0 if value > 2.0 else value)


def as_rows(X) -> np.ndarray:
    """``X`` as an array of float32 or float64: float32 is kept as given, in
    the precision a binary file holds, and anything else becomes float64.
    Widening float32 to float64 is exact, so a reader widens only the rows it
    uses, before any arithmetic on them."""
    X = np.asarray(X)
    return X if X.dtype == np.float32 else X.astype(np.float64, copy=False)


def as_ids(ids, error: type[Exception], where: str) -> np.ndarray:
    """``ids`` as an int64 array of their shape (``ids`` itself if it is one).  An id
    is an integer int64 can hold; else ``error`` names ``where.format(position)``
    of the first fraction, NaN or infinity, or else of the first id out of range."""
    a = np.asarray(ids)
    if a.dtype.kind not in "biu":
        a = np.asarray(ids, dtype=object)  # each id as given, so no int is rounded to a float
        if (bad := np.flatnonzero([not isinstance(v, int) and float(v) % 1 != 0 for v in a.flat])).size:
            raise error(f"{where.format(int(bad[0]))} is not an integer")
    if (bad := np.flatnonzero((a < -(1 << 63)) | (a >= 1 << 63))).size:
        raise error(f"{where.format(int(bad[0]))} exceeds supported range")
    return a.astype(np.int64, copy=False)


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Float64 norms of the rows of the 2-d ``X``, widened ``_NORM_ELEMS``
    elements at a time, so a float32 ``X`` is never copied whole (and a row
    whose float32 norm would overflow gets its finite float64 norm)."""
    out = np.empty(len(X))
    step = max(1, _NORM_ELEMS // max(1, X.shape[1]))
    for lo in range(0, len(X), step):
        W = X[lo : lo + step].astype(np.float64, copy=False)
        np.sqrt(np.einsum("ij,ij->i", W, W), out=out[lo : lo + step])
    return out


def first_without_direction(X: np.ndarray, norms: np.ndarray | None = None) -> tuple[int, str] | None:
    """``(row, reason)`` for the first row of the 2-d ``X`` with no direction,
    or None: a row has one when its components are finite and ``MIN_NORM <=
    norm < inf``.  Each reason is tried over all rows before the next, only
    once the rows' ``norms`` (``_row_norms(X)`` when omitted) show a fault."""
    norms = _row_norms(X) if norms is None else norms
    if not norms.size or (norms.min() >= MIN_NORM and norms.max() < math.inf):
        return None
    for bad, reason in ((~np.isfinite(X).all(axis=1), "non-finite vector component"),
                        (norms < MIN_NORM, f"vector norm below {MIN_NORM:g}"),
                        (norms == math.inf, "vector norm overflows")):
        if bad.any():
            return int(np.argmax(bad)), reason


def _norm(a: np.ndarray, name: str) -> float:
    """``|a|``, refused unless ``a`` has a direction.  ``np.vdot`` is the BLAS
    dot ``np.dot`` runs, bit for bit, without its warning on overflow."""
    na = math.sqrt(float(np.vdot(a, a)))
    if not MIN_NORM <= na < math.inf:
        raise InvalidArgumentError(f"{name}: {first_without_direction(a[None], np.array([na]))[1]}")
    return na


def cosine_dissimilarity(x1, x2) -> float:
    """``1 - <x1,x2> / (|x1| |x2|)``, clamped to ``[0, 2]``.

    Exactly symmetric: both argument orders run the same dot products and the
    norm product commutes bitwise.
    """
    a = np.asarray(x1, dtype=np.float64)
    b = np.asarray(x2, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise InvalidArgumentError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na, nb = _norm(a, "x1"), _norm(b, "x2")
    if np.array_equal(a, b):
        return 0.0  # the quotient form can round identical vectors to +-1 ulp
    return _clamp(1.0 - float(np.dot(a, b)) / (na * nb))


def unit_rows(X: np.ndarray) -> np.ndarray:
    """Rows of ``X`` scaled to unit norm, in a new C-contiguous float64 array;
    refuses a row with no direction.  ``X`` is widened once, into that array,
    which is then divided in place: the bits of ``X / norms[:, None]`` on the
    float64 rows."""
    U = np.array(X, dtype=np.float64, order="C")
    if U.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-d array of row vectors, got ndim={U.ndim}")
    norms = np.sqrt(np.einsum("ij,ij->i", U, U))
    if fault := first_without_direction(U, norms):
        raise InvalidArgumentError("row %d: %s" % fault)
    U /= norms[:, None]
    return U


def one_to_many(x: np.ndarray, V: np.ndarray, twins) -> np.ndarray:
    """Dissimilarity of one vector to each row of ``V``, aligned with ``V``.

    ``V`` holds unit rows in one C-contiguous array, which the caller makes or
    holds (a cluster's rows, a view from ``outside_gathers``); the kernel runs
    one matrix-vector product on it as given.  ``twins`` are the positions in
    ``V`` of the rows whose raw row equals ``x`` under ``==``, which the caller
    finds (``twin_index``); they are exactly 0.  A product over the whole
    class indexed afterwards is not equivalent: BLAS can round a row
    differently by its place.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise InvalidArgumentError("expected a single vector")
    na = _norm(a, "x")
    if V.ndim != 2 or V.shape[1] != len(a) or not V.flags.c_contiguous:
        raise InvalidArgumentError(f"unit rows {V.shape} do not fit {a.shape}")
    d = 1.0 - (V @ (a / na))
    np.clip(d, 0.0, 2.0, out=d)
    d[np.asarray(twins, dtype=np.intp)] = 0.0
    return d


def _gather_order(clusters, n: int) -> list[int]:
    """Indices of ``clusters`` grouped by size, and within one size in
    boustrophedon order over (min row, max row): ``isqrt(q)`` strips of
    equal width on the min row, the max row ascending in even strips and
    descending in odd ones.  Neighbours in this order remove nearby rows, so
    their outside rows differ in few positions."""
    strips = max(1, math.isqrt(len(clusters)))

    def key(i):
        lo, hi = int(clusters[i].min()), int(clusters[i].max())
        strip = lo * strips // n
        return len(clusters[i]), strip, -hi if strip % 2 else hi, lo, i

    return sorted(range(len(clusters)), key=key)


def _move_rows(flat: np.ndarray, d: int, src: int, dst: int, count: int) -> None:
    """Rows ``src:src+count`` of the flat ``U`` to ``dst:``, in place even where they overlap."""
    flat[dst * d : (dst + count) * d] = flat[src * d : (src + count) * d]


def _rearrange(U: np.ndarray, old: list[int], new: list[int]) -> list[int]:
    """Lay ``U`` out for the ascending member rows ``new`` instead of ``old``
    (the outside rows ascending, then the members; ``[]``: ``U``'s own order)
    and return ``new``.  The members are parked in a copy.  A run of rows in
    neither, from row a, moves from ``a - #{old < a}`` to ``a - #{new < a}``,
    so sources and destinations ascend alike.  A downward run, moved in
    ascending order, lands below every later source, and above the source of
    every earlier upward run, which lies below that run's destination.  An
    upward run, moved in descending order, lands above every unmoved source."""
    n, d = U.shape
    runs, src, dst = [], [], []
    i = j = a = 0
    for u in sorted(set(old).union(new)) + [n]:
        if a < u and i != j:
            runs.append((a - i, a - j, u - a))
        if u < n:
            in_old, in_new = i < len(old) and old[i] == u, j < len(new) and new[j] == u
            src.append(n - len(old) + i if in_old else u - i)
            dst.append(n - len(new) + j if in_new else u - j)
            i, j, a = i + in_old, j + in_new, u + 1
    parked, flat = U.take(src, axis=0), U.reshape(-1)  # a 2-d move would copy the rows
    for s, t, c in [r for r in runs if r[1] < r[0]] + [r for r in runs[::-1] if r[1] > r[0]]:
        _move_rows(flat, d, s, t, c)
    U[dst] = parked
    return new


def outside_gathers(U: np.ndarray, clusters):
    """Yield ``(i, members, V)`` for every ``clusters[i]`` (row positions of ``U``,
    in any order), in ``_gather_order``: ``members`` ascending, and ``V = U[:n -
    len(members)]`` holding ``U[outside]`` with the values and C-contiguous layout
    of that copy.  ``U`` (C-contiguous, writable) is rearranged in place, so ``V``
    is valid until the next item, and put back when the walk ends, is closed or raises."""
    prev: list[int] = []
    try:
        for i in _gather_order(clusters, len(U)):
            members = np.sort(clusters[i])
            prev = _rearrange(U, prev, members.tolist())
            yield i, members, U[: len(U) - len(prev)]
    finally:
        _rearrange(U, prev, [])


def condensed_offsets(n: int) -> np.ndarray:
    """``offsets[i]`` = condensed index of pair ``(i, i+1)`` for an n-point matrix."""
    i = np.arange(n, dtype=np.int64)
    return i * n - (i * (i + 1)) // 2


def _gram_blocks(U: np.ndarray):
    """``(lo, hi, U[lo:hi] @ U[lo:].T)`` for consecutive row blocks of ``U``:
    the panel of the upper triangle that holds rows ``lo:hi``, column ``c`` of
    the panel being column ``lo + c`` of the gram matrix.

    The one GEMM shape and blocking behind every pairwise value: a cell's bits
    depend on its place in this product, so every reader of the pairwise
    matrix takes its cells from here.  Every block but the last has
    ``_BLOCK_ELEMS // n`` rows (at least one, at most n), so for n <= 1448 the
    first block is the whole matrix.  No panel holds the cells left of its
    diagonal block, which no reader uses.

    Every panel is written into one buffer that the next panel overwrites,
    so a reader copies what it keeps.  The buffer is an anonymous mapping of
    its own, sized for the first and widest panel, and unmapped when the last
    panel is dropped.  Blocks taken from the heap sometimes could not reuse
    the space a freed block left, so a later block took fresh pages: on four
    3400 x 32 classes, 8 of 40 output-path lengths raised the peak RSS from
    85 to 113 MB.
    """
    n = U.shape[0]
    if n == 0:
        return
    block = min(n, max(1, _BLOCK_ELEMS // n))
    buf = mmap.mmap(-1, block * n * 8, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    with contextlib.suppress(AttributeError, OSError):  # advice only, as numpy gives its own
        buf.madvise(mmap.MADV_HUGEPAGE)
    out = np.frombuffer(buf, dtype=np.float64)
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        G = out[: (hi - lo) * (n - lo)].reshape(hi - lo, n - lo)
        yield lo, hi, np.matmul(U[lo:hi], U[lo:].T, out=G)


def twin_index(X: np.ndarray) -> dict[int, np.ndarray]:
    """Row -> the ascending rows of the 2-d ``X`` equal to it under ``==``
    (itself included, and -0.0 == 0.0), for each row that has such a twin.
    Only rows whose column-0 value repeats can have one, so only those are
    keyed, by their widened row plus 0.0: equal exactly when the rows are."""
    key0 = (X[:, 0].astype(np.float64) + 0.0).view(np.int64)
    ranked = np.sort(key0)
    repeats = ranked[1:][ranked[1:] == ranked[:-1]]
    groups: dict[bytes, list[int]] = {}
    for i in np.flatnonzero(np.isin(key0, repeats)).tolist():
        groups.setdefault((X[i].astype(np.float64) + 0.0).tobytes(), []).append(i)
    return {r: g for g in map(np.array, groups.values()) if len(g) > 1 for r in g.tolist()}


def _duplicate_cells(X: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Condensed indices, ascending, of the row pairs of ``X`` equal under
    ``==`` (``twin_index``).  These cells are exactly 0, as in
    ``one_to_many``; the gram product rounds them to ~1e-16."""
    cells = []
    for row, r in twin_index(X).items():
        if row == r[0]:
            ii, jj = np.triu_indices(len(r), k=1)
            a, b = r[ii], r[jj]
            cells.append(offs[a] + b - a - 1)
    return np.sort(np.concatenate(cells)) if cells else np.empty(0, dtype=np.int64)


def pairwise_condensed(X: np.ndarray, U: np.ndarray | None = None) -> np.ndarray:
    """Upper-triangular cosine dissimilarities of the rows of ``X``.

    Returns a float64 vector of length ``n*(n-1)//2`` laid out row-major:
    (0,1), (0,2), ..., (0,n-1), (1,2), ...  Built from the upper-triangle
    panels ``U[lo:hi] @ U[lo:].T`` of the normalized rows (``_gram_blocks``),
    row ``i`` copied from panel column ``i + 1 - lo`` on, so every value
    matches ``cosine_dissimilarity`` of the corresponding pair to within a
    few ulp.  ``U`` is the caller's ``unit_rows(X)`` when it holds one, and
    is computed when omitted.
    """
    X = as_rows(X)
    U = unit_rows(X) if U is None else U
    if U.shape != X.shape:
        raise InvalidArgumentError(f"unit rows {U.shape} do not match rows {X.shape}")
    n = U.shape[0]
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    offs = condensed_offsets(n)
    for lo, hi, G in _gram_blocks(U):
        for i in range(lo, hi):
            out[offs[i] : offs[i] + n - 1 - i] = G[i - lo, i + 1 - lo :]
    np.subtract(1.0, out, out=out)  # elementwise: the bits a full block would get
    np.clip(out, 0.0, 2.0, out=out)
    out[_duplicate_cells(X, offs)] = 0.0
    return out


def smallest_pairs(X: np.ndarray, U: np.ndarray, room: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The smallest cells of ``pairwise_condensed(X)``, without building it.

    ``U`` is the caller's ``unit_rows(X)``.  Returns ``(bound, idx, values)``:
    ``idx`` holds the condensed index of every cell ``<= bound``, at most
    ``room`` of them, in ascending ``(value, index)`` order, and ``values``
    their values, bit for bit those of ``pairwise_condensed(X)[idx]``.

    The bound starts at a sample value: the sample strides over the first
    gram block's cells (all cells when n <= 1448), about ``_SAMPLE_CELLS`` of
    them, and the bound is its value at rank ``room * len(sample) // len(D)``
    (``+inf`` past its end).  Whenever more than ``room`` cells are held it
    drops to just below the (room+1)-th smallest of them, the largest bound
    that leaves ``room`` or fewer.  Each block's panel is screened whole on
    its raw gram values, and only the upper cells that pass get ``1 - g`` and
    the clip; it holds one panel at a time plus the cells kept.
    """
    X = as_rows(X)
    n = U.shape[0]
    total = n * (n - 1) // 2
    offs = condensed_offsets(n)
    base = offs - np.arange(n, dtype=np.int64) - 1  # cond(i, j) = base[i] + j for i < j
    dups = _duplicate_cells(X, offs)
    bound = None
    held: list[tuple[np.ndarray, np.ndarray]] = []
    count = 0

    def values(G, lo, cells):
        # The ufuncs pairwise_condensed applies, on the same gram values.
        rows = np.searchsorted(offs, cells, side="right") - 1
        v = np.clip(np.subtract(1.0, G[rows - lo, cells - base[rows] - lo]), 0.0, 2.0)
        if dups.size:
            v[np.isin(cells, dups)] = 0.0
        return v

    for lo, hi, G in _gram_blocks(U):
        end = offs[hi - 1] + n - hi  # the block holds cells [offs[lo], end)
        if bound is None:
            s = np.arange(0, end, max(1, end // _SAMPLE_CELLS), dtype=np.int64)
            sample = np.sort(values(G, lo, s))
            rank = room * len(sample) // max(total, 1)
            bound = float(sample[rank]) if rank < len(sample) else math.inf
        # The screen keeps every cell with v = clip(fl(1 - g), 0, 2) <= bound.
        # For 0 <= bound < 2 such a cell has fl(1 - g) <= bound, so
        # 1 - g <= bound + 2u (u = 2**-53), and thr = fl(fl(1 - bound) - m)
        # is within 2u + u*m of 1 - bound - m: any margin m above 4u keeps
        # it, and 1e-15 is about 9u.  A bound >= 2 keeps every cell, and
        # twins are 0.0 whatever their gram value, so they are added below.
        thr = 1.0 - bound - 1e-15 if bound < 2.0 else -math.inf
        r, j = np.divmod(np.flatnonzero(G >= thr), n - lo)
        upper = j > r
        cells = base[lo + r[upper]] + lo + j[upper]
        twins = dups[np.searchsorted(dups, offs[lo]) : np.searchsorted(dups, end)]
        if twins.size:
            cells = np.union1d(cells, twins)
        v = values(G, lo, cells)
        keep = v <= bound
        held.append((cells[keep], v[keep]))
        count += held[-1][0].size
        if count > room:
            cells = np.concatenate([c for c, _ in held])
            v = np.concatenate([x for _, x in held])
            bound = float(np.nextafter(np.partition(v, room)[room], -np.inf))
            keep = v <= bound
            held, count = [(cells[keep], v[keep])], int(np.count_nonzero(keep))
    # The held cells ascend: each block's come from flatnonzero in row-major
    # order, blocks are read in ascending order and the bound's filter keeps
    # that order.  A stable sort by value then gives (value, index) order.
    cells = np.concatenate([c for c, _ in held])
    v = np.concatenate([x for _, x in held])
    order = np.argsort(v, kind="stable")
    return bound, cells[order], v[order]
