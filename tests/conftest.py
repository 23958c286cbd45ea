from __future__ import annotations

import contextlib
import os
import threading

import numpy as np
import pytest

from redunda.store import EmbeddingDataset


@pytest.fixture
def tiny_dataset() -> EmbeddingDataset:
    """3 records, 2 classes, dim 2 — the smallest interesting dataset."""
    vectors = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return EmbeddingDataset.from_arrays([0, 1, 2], [0, 0, 1], vectors)


# Rows with no direction, and the reason ``metric.first_without_direction``
# gives for each: a NaN, a +inf and a -inf component, finite components whose
# norm overflows, and the zero row.
NO_DIRECTION = [
    ([np.nan, 1.0], "non-finite vector component"),
    ([np.inf, 1.0], "non-finite vector component"),
    ([1.0, -np.inf], "non-finite vector component"),
    ([1e200, 1e200], "vector norm overflows"),
    ([0.0, 0.0], "vector norm below 1e-30"),
]


def random_unit_rows(rs: np.random.Generator, n: int, dim: int) -> np.ndarray:
    X = rs.normal(size=(n, dim))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def clusters(part) -> tuple[frozenset, ...]:
    """A partition's clusters as sets of sample ids, in partition order."""
    ids, s = part.sample_ids[part.order].tolist(), part.starts.tolist()
    return tuple(frozenset(ids[a:b]) for a, b in zip(s, s[1:]))


def with_duplicates(rs: np.random.Generator, X: np.ndarray, copies: int) -> np.ndarray:
    """Overwrite `copies` random rows with copies of other rows (forces ties)."""
    X = X.copy()
    n = len(X)
    for _ in range(copies):
        i, j = rs.integers(0, n, size=2)
        X[i] = X[j]
    return X


def stacked_dataset(class_arrays: dict, start_id: int = 0) -> EmbeddingDataset:
    """Stack per-class arrays into a dataset with sequential sample_ids."""
    sids, cids, rows = [], [], []
    nxt = start_id
    for cid, X in class_arrays.items():
        for row in np.asarray(X, dtype=np.float64):
            sids.append(nxt)
            cids.append(cid)
            rows.append(row)
            nxt += 1
    return EmbeddingDataset.from_arrays(
        np.array(sids, dtype=np.int64),
        np.array(cids, dtype=np.int64),
        np.array(rows, dtype=np.float64),
    )


@contextlib.contextmanager
def pipe_serving(tmp_path, raw: bytes):
    """Path of a named pipe that a thread fills with ``raw`` and closes once a
    reader opens it."""
    fifo = tmp_path / "pipe.bin"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as w:  # blocks until the reader opens the pipe
            w.write(raw)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        yield fifo
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive(), "the reader never opened the pipe"
