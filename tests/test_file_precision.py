"""Rows keep the precision they come in, and every reader widens them exactly.

A binary file holds float32 rows.  The dataset keeps them float32, as a view
of the body that was read, and each reader widens the rows it uses to float64
before any arithmetic on them.  Widening float32 to float64 is exact, so a run
on the float32 rows must write every artifact byte for byte as a run on the
same rows widened up front.  The hazards are arithmetic that silently stays in
float32:

- a float32 ``np.einsum`` or ``np.vdot`` (row norms, gram values, medoid
  scores): it rounds each product to float32, and a row whose float32 norm
  overflows has a finite float64 one;
- a float32 mean (``X[R].mean()`` on float32 rows), or a float32 reduction
  with ``dtype=np.float64``, which casts in buffered pieces and need not add
  in the order the float64 rows do;
- comparing a float32 array with a Python float: under NEP 50 the float is
  cast down to float32, so ``X == 0.1`` holds for rows whose widened values
  differ from 0.1.
"""

from __future__ import annotations

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from redunda import cli, metric
from redunda.selection import build_cluster_subset
from redunda.store import EmbeddingDataset, canonical_bytes, load_dataset

BIG = 1e20  # float32 holds it, but the float32 sum of its squares overflows


def float32_rows() -> tuple[np.ndarray, np.ndarray]:
    """90 float32 rows of 12 components in three interleaved classes, with
    exact twins (one pair differs only in the sign of a zero), one row whose
    float32 norm would overflow, and a tight triple whose medoid is row 23
    under the float64 mean but row 26 under the float32 one."""
    rs = np.random.default_rng(16)
    X = rs.normal(size=(90, 12)).astype(np.float32)
    cids = np.arange(90) % 3  # no class is one run of records
    X[17] = X[5]
    X[42] = X[3]
    X[3, 2], X[42, 2] = 0.0, -0.0
    X[13] = X[16] = X[10]
    X[7] *= np.float32(BIG)
    near = np.random.default_rng(28)
    X[[20, 23, 26]] = near.normal(size=12) + 3e-6 * near.normal(size=(3, 12))
    return X, cids


def artifacts(out) -> dict[str, bytes]:
    """Every file a run wrote; run_metadata.json without its timestamp."""
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    meta = json.loads(files["run_metadata.json"])
    del meta["timestamp"]
    files["run_metadata.json"] = json.dumps(meta, sort_keys=True).encode()
    return files


@pytest.mark.parametrize("fraction, dense", [(0.9, False), (0.1, True)])
def test_binary_rows_write_the_artifacts_of_their_widened_rows(tmp_path, fraction, dense):
    X, cids = float32_rows()
    data = tmp_path / "d.bin"
    data.write_bytes(canonical_bytes(EmbeddingDataset(np.arange(90), cids, X)))
    ds = load_dataset(data)
    wide = EmbeddingDataset(
        ds.sample_ids, ds.class_ids, ds.vectors.astype(np.float64), source_digest=ds.digest()
    )
    assert ds.vectors.dtype == np.float32 and wide.vectors.dtype == np.float64
    assert float(wide.vectors[7] @ wide.vectors[7]) > float(np.finfo(np.float32).max)

    runs = {}
    for name, given in (("file", ds), ("wide", wide)):
        with mock.patch.object(cli, "load_dataset", return_value=given), \
             mock.patch.object(metric, "pairwise_condensed",
                               wraps=metric.pairwise_condensed) as built:
            rc = cli.main(["select", "--input", str(data), "--fraction", str(fraction),
                           "--out", str(tmp_path / name), "--dump-dendrograms"])
        assert rc == 0
        assert bool(built.call_count) == dense  # which engine took the merges
        runs[name] = artifacts(tmp_path / name)
    assert len(runs["file"]) == 13  # manifest, 7 reports, 3 dendrograms, metadata
    assert runs["file"] == runs["wide"]


def test_binary_load_allocates_no_float64_copy_of_its_rows(tmp_path):
    n, d = 4000, 128
    X = np.random.default_rng(3).normal(size=(n, d)).astype(np.float32)
    data = tmp_path / "d.bin"
    data.write_bytes(canonical_bytes(EmbeddingDataset(np.arange(n), np.zeros(n), X)))
    tracemalloc.start()
    try:
        ds = load_dataset(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.vectors.dtype == np.float32 and np.array_equal(ds.vectors, X)
    # The body read (n records of 4 + 4 d bytes) and the norms' chunks; any
    # float64 array of the rows would add n * d * 8 bytes.
    assert peak < n * (4 + 4 * d) + n * d * 8 // 2


def test_clustering_a_binary_class_holds_one_float64_copy_of_it(tmp_path):
    # One 400 x 2048 class at fraction 0.9, both reports on.  Besides the unit
    # rows U (n * d * 8 bytes), what is live at once is either a gram block
    # (in a mapping tracemalloc does not see, so the largest is added) with
    # the screen's mask, or the outside buffer of ``nearest_excluded`` (n - 2
    # rows of U): about 2.2 U in all, with the first-call imports.  A float64
    # copy of the class's rows, held through either phase, would add another U.
    n, d = 400, 2048
    X = np.random.default_rng(8).normal(size=(n, d)).astype(np.float32)
    data = tmp_path / "d.bin"
    data.write_bytes(canonical_bytes(EmbeddingDataset(np.arange(n), np.zeros(n), X)))
    ds = load_dataset(data)
    blocks = []
    gram_blocks = metric._gram_blocks

    def spy(U):
        for lo, hi, G in gram_blocks(U):
            blocks.append(G.nbytes)
            yield lo, hi, G

    tracemalloc.start()
    try:
        with mock.patch.object(metric, "_gram_blocks", spy):
            build_cluster_subset(ds, 0.9, dissimilarity=True, nearest_excluded=True)
        peak = tracemalloc.get_traced_memory()[1] + max(blocks)
    finally:
        tracemalloc.stop()
    U = n * d * 8
    assert max(blocks) < U / 4
    assert peak < 2.5 * U
