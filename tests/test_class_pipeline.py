"""The class pipeline normalizes each class once; its numbers must not move.

The reference below computes every value the way the per-cluster code did:
gather the cluster's raw rows, normalize just those rows, then take one
matrix-vector product.  The pipeline normalizes the whole class once and
gathers unit rows instead, and builds the report entries of each
``ClassResult`` from them.  Reports print 17 significant digits, so medoids,
cluster means and nearest-excluded pairs are compared with ``==``, on the
threshold engine's path and on a give-up to the dense loop.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest

from conftest import clusters, random_unit_rows, with_duplicates
from redunda import metric
from redunda.analysis import avg_dissimilarity, nearest_excluded
from redunda.metric import unit_rows
from redunda.selection import build_cluster_subset
from redunda.store import EmbeddingDataset


def gathered_dissimilarity(x, M):
    """Dissimilarity of ``x`` to the rows of ``M``, normalizing ``M`` itself."""
    a = np.asarray(x, dtype=np.float64)
    d = 1.0 - (unit_rows(M) @ (a / math.sqrt(float(np.dot(a, a)))))
    np.clip(d, 0.0, 2.0, out=d)
    d[(M == a).all(axis=1)] = 0.0
    return d


def reference(ids, X, clusters):
    """Per-cluster medoids, cluster means and nearest-excluded pairs."""
    row_of = {int(s): r for r, s in enumerate(ids)}
    reps, means, pairs = [], [], []
    for cluster in clusters:
        members = np.array(sorted(cluster), dtype=np.int64)
        if len(members) == 1:
            reps.append(int(members[0]))
            continue
        V = X[[row_of[s] for s in members]]
        d = gathered_dissimilarity(V.mean(axis=0), V)
        rep = int(members[np.lexsort((members, d))[0]])
        reps.append(rep)
        others = X[[row_of[s] for s in sorted(cluster - {rep})]]
        means.append(float(gathered_dissimilarity(X[row_of[rep]], others).mean()))
        if len(clusters) > 1:
            outside = np.array([r for r, s in enumerate(ids) if int(s) not in cluster])
            d = gathered_dissimilarity(X[row_of[rep]], X[outside])
            pick = int(np.lexsort((ids[outside], d))[0])
            pairs.append((rep, int(ids[outside][pick]), float(d[pick])))
    return tuple(reps), tuple(means), tuple(pairs)


# Fraction 0.6 stays on the threshold engine; 0.1 needs far more than 8 cells
# per point below the cut, so every class gives up to the dense loop.
CASES = [(d, i, f) for f in (0.6, 0.1) for i in (False, True) for d in (16, 64, 257, 2048)]


@pytest.mark.parametrize(
    "dim, interleaved, fraction", CASES,
    ids=[f"{i}-{d}" + ("-give-up" if f < 0.5 else "") for d, i, f in CASES],
)
def test_pipeline_matches_per_cluster_reference(dim, interleaved, fraction):
    rs = np.random.default_rng(dim)
    sizes = {0: 240, 3: 150, 7: 90}
    X = np.vstack([
        with_duplicates(rs, random_unit_rows(rs, n, dim) * rs.uniform(0.5, 2.0, (n, 1)), n // 5)
        for n in sizes.values()
    ])
    cids = np.repeat(list(sizes), list(sizes.values()))
    sids = np.arange(len(X))
    if interleaved:  # classes spread through the file, ids not ascending in row order
        order = rs.permutation(len(X))
        X, cids = X[order], cids[order]
        sids = rs.permutation(10 * len(X))[: len(X)]
    ds = EmbeddingDataset(sids, cids, X)

    with mock.patch.object(metric, "pairwise_condensed", wraps=metric.pairwise_condensed) as dense:
        _, results = build_cluster_subset(ds, fraction, dissimilarity=True, nearest_excluded=True)
    assert dense.call_count == (len(sizes) if fraction < 0.5 else 0)
    for cid, res in results.items():
        ids, Xc = ds.class_arrays(cid)
        reps, means, pairs = reference(ids, Xc, clusters(res.partition))
        assert res.reps == reps
        assert res.dissimilarity == means
        assert res.pairs == pairs
        U = unit_rows(Xc)
        assert avg_dissimilarity(res.partition, res.reps, Xc, U) == means
        assert nearest_excluded(res.partition, res.reps, Xc, U) == pairs
        if fraction > 0.5:
            assert 0.0 in means  # the injected duplicates collapsed into some cluster


def test_each_report_alone_prints_what_both_print():
    rs = np.random.default_rng(5)
    sizes = {0: 120, 4: 80, 9: 60}
    X = np.vstack([with_duplicates(rs, random_unit_rows(rs, n, 8), n // 5) for n in sizes.values()])
    cids = np.repeat(list(sizes), list(sizes.values()))
    ds = EmbeddingDataset(np.arange(len(X)), cids, X)

    def run(**reports):
        return build_cluster_subset(ds, 0.7, **reports)[1].values()

    both = run(dissimilarity=True, nearest_excluded=True)
    alone = run(dissimilarity=True)
    assert [r.dissimilarity for r in both] == [r.dissimilarity for r in alone]
    alone = run(nearest_excluded=True)
    assert [r.pairs for r in both] == [r.pairs for r in alone]
