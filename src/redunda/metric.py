"""Cosine dissimilarity kernels and the condensed pairwise matrix.

All dissimilarities are clamped to ``[0, 2]``: floating-point rounding can
otherwise push ``1 - cos`` marginally outside the mathematical range for
near-identical or near-opposite directions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

MIN_NORM = 1e-30

# Rows per block when building the pairwise matrix; bounds the size of the
# intermediate gram block to roughly block * n doubles.
_BLOCK_ELEMS = 1 << 22


def _clamp(value: float) -> float:
    return 0.0 if value < 0.0 else (2.0 if value > 2.0 else value)


def cosine_dissimilarity(x1, x2) -> float:
    """``1 - <x1,x2> / (|x1| |x2|)``, clamped to ``[0, 2]``.

    Exactly symmetric: both argument orders run the same dot products and the
    norm product commutes bitwise.
    """
    a = np.asarray(x1, dtype=np.float64)
    b = np.asarray(x2, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise InvalidArgumentError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] < 1:
        raise InvalidArgumentError("vectors must have at least one component")
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na < MIN_NORM or nb < MIN_NORM:
        raise InvalidArgumentError(
            f"zero-norm vector (norm below {MIN_NORM:g}) has no direction"
        )
    if np.array_equal(a, b):
        return 0.0  # the quotient form can round identical vectors to +-1 ulp
    return _clamp(1.0 - float(np.dot(a, b)) / (na * nb))


def unit_rows(X: np.ndarray) -> np.ndarray:
    """Rows of ``X`` scaled to unit norm; rejects rows with no direction."""
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    if X.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-d array of row vectors, got ndim={X.ndim}")
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    bad = np.flatnonzero(norms < MIN_NORM)
    if bad.size:
        raise InvalidArgumentError(f"row {int(bad[0])} has norm below {MIN_NORM:g}")
    return X / norms[:, None]


def one_to_many(x: np.ndarray, X: np.ndarray, U: np.ndarray, rows) -> np.ndarray:
    """Dissimilarity of one vector to the rows ``X[rows]``, given ``U = unit_rows(X)``.

    Results are aligned with ``rows``.  Callers normalize a class once and pass
    its whole ``X`` and ``U`` plus the row positions they need; the kernel
    gathers ``U[rows]`` and runs one matrix-vector product on that copy.
    Computing over the whole class and indexing afterwards is not equivalent:
    the BLAS matrix-vector product can round a row differently depending on
    where it sits in the matrix.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise InvalidArgumentError("expected a single vector")
    na = math.sqrt(float(np.dot(a, a)))
    if na < MIN_NORM:
        raise InvalidArgumentError(f"zero-norm vector (norm below {MIN_NORM:g}) has no direction")
    if U.shape != np.shape(X):
        raise InvalidArgumentError(f"unit rows {U.shape} do not match rows {np.shape(X)}")
    if U.shape[1] != a.shape[0]:
        raise InvalidArgumentError(f"dimension mismatch: {a.shape[0]} vs {U.shape[1]}")
    rows = np.asarray(rows, dtype=np.intp)
    d = 1.0 - (U[rows] @ (a / na))
    np.clip(d, 0.0, 2.0, out=d)
    # Exact duplicates (bit-equal raw rows, -0.0 == 0.0) are exactly zero.
    # Column 0 narrows the candidates, so most raw rows are never read.
    cand = np.flatnonzero(X[rows, 0] == a[0])
    if cand.size:
        d[cand[(X[rows[cand]] == a).all(axis=1)]] = 0.0
    return d


def condensed_offsets(n: int) -> np.ndarray:
    """``offsets[i]`` = condensed index of pair ``(i, i+1)`` for an n-point matrix."""
    i = np.arange(n, dtype=np.int64)
    return i * n - (i * (i + 1)) // 2


def pairwise_condensed(X: np.ndarray) -> np.ndarray:
    """Upper-triangular cosine dissimilarities of the rows of ``X``.

    Returns a float64 vector of length ``n*(n-1)//2`` laid out row-major:
    (0,1), (0,2), ..., (0,n-1), (1,2), ...  Built from a blocked gram product
    of the normalized rows, so every value matches ``cosine_dissimilarity``
    of the corresponding pair to within a few ulp.
    """
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    U = unit_rows(X)
    n = U.shape[0]
    out = np.empty(n * (n - 1) // 2, dtype=np.float64)
    offs = condensed_offsets(n)
    block = max(1, _BLOCK_ELEMS // max(n, 1))
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        G = U[lo:hi] @ U.T
        np.subtract(1.0, G, out=G)
        np.clip(G, 0.0, 2.0, out=G)
        for i in range(lo, hi):
            out[offs[i] : offs[i] + n - 1 - i] = G[i - lo, i + 1 :]

    # Bit-identical input rows get dissimilarity exactly 0; the gram product
    # rounds them to ~1e-16 otherwise.
    groups: dict[bytes, list[int]] = {}
    for i in range(n):
        groups.setdefault(X[i].tobytes(), []).append(i)
    for rows in groups.values():
        if len(rows) < 2:
            continue
        r = np.array(rows, dtype=np.int64)
        ii, jj = np.triu_indices(len(r), k=1)
        a, b = r[ii], r[jj]
        out[offs[a] + b - a - 1] = 0.0
    return out
