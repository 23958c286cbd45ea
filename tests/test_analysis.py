from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import clusters, random_unit_rows
from redunda.analysis import (
    ClassDissimilarity,
    NearestExcludedPair,
    assemble_dissimilarity_report,
    avg_dissimilarity,
    dissimilarity_to_json,
    dissimilarity_to_table,
    histogram_to_csv,
    histogram_to_json,
    histogram_to_table,
    nearest_excluded,
    pairs_to_json,
    pairs_to_table,
    size_histogram,
)
from redunda.cluster import Partition, agglomerate_fast
from redunda.errors import InvalidArgumentError
from redunda.metric import unit_rows
from redunda.selection import build_cluster_subset
from redunda.store import EmbeddingDataset
from test_class_pipeline import reference

# mean of d((1,0),(1,1)) = 1 - 1/sqrt(2) and d((1,0),(0,1)) = 1.
MEAN_DIAG_ORTHO = 0.6464466094067263
# d((1,0),(0.9,0.1)) = 1 - 0.9/sqrt(0.82)
D_NEAR_MISS = 0.006116265326381098


def part(class_id, *clusters, ids=None):
    """``clusters`` of sample ids over a class whose ids in row order are
    ``ids``, by default the clusters' ids ascending."""
    return Partition.from_groups(
        class_id, sorted(set().union(*clusters)) if ids is None else ids, clusters
    )


def class_of(points):
    """``(X, U)`` of a class given as ``(sample_id, vector)`` pairs."""
    X = np.array([v for _, v in points], dtype=np.float64)
    return X, unit_rows(X)


def positional(X):
    return class_of(list(enumerate(X)))


class TestSizeHistogram:
    def test_pair_and_singleton(self):
        h = size_histogram(part(3, {0, 1}, {2}))
        assert h.class_id == 3
        assert h.counts == {1: 1, 2: 1}

    def test_all_singletons(self):
        h = size_histogram(part(0, *({i} for i in range(7))))
        assert h.counts == {1: 7}

    def test_counts_sorted_by_size(self):
        h = size_histogram(part(0, {0, 1, 2}, {3}, {4, 5}, {6, 7}))
        assert list(h.counts) == [1, 2, 3]
        assert h.counts == {1: 1, 2: 2, 3: 1}

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_mass_conservation(self, sizes):
        nxt, clusters = 0, []
        for s in sizes:
            clusters.append(set(range(nxt, nxt + s)))
            nxt += s
        h = size_histogram(part(0, *clusters))
        assert sum(size * count for size, count in h.counts.items()) == nxt
        assert sum(h.counts.values()) == len(sizes)


class TestAvgDissimilarity:
    def worked(self):
        cls = positional([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        return part(0, {0, 1, 2}), (0,), cls

    def test_worked_example(self):
        # single cluster, rep (1,0): mean of {d((1,1)), d((0,1))} = {0.2928..., 1.0}
        p, reps, cls = self.worked()
        entry = avg_dissimilarity(p, reps, *cls)
        assert entry.class_id == 0
        assert entry.cluster_means == (pytest.approx(MEAN_DIAG_ORTHO, abs=1e-15),)
        assert entry.mean == pytest.approx(MEAN_DIAG_ORTHO, abs=1e-15)

    def test_duplicate_cluster_is_exactly_zero(self):
        cls = positional([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        entry = avg_dissimilarity(part(0, {0, 1, 2}), (1,), *cls)
        assert entry.mean == 0.0
        assert entry.cluster_means == (0.0,)

    def test_singletons_do_not_qualify(self):
        cls = positional([[1.0, 0.0], [0.0, 1.0]])
        assert avg_dissimilarity(part(0, {0}, {1}), (0, 1), *cls) is None

    def test_mixed_cluster_sizes(self):
        cls = positional([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.3, 0.4]])
        p = part(0, {0, 1, 2}, {3})
        entry = avg_dissimilarity(p, (0, 3), *cls)
        assert len(entry.cluster_means) == 1  # singleton skipped

    def test_rep_must_be_member(self):
        p, _, cls = self.worked()
        for rep in (99, 2**70, None):  # outside the class, beyond int64, not a number
            with pytest.raises(InvalidArgumentError, match="not a member"):
                avg_dissimilarity(p, (rep,), *cls)

    def test_rep_must_exist(self):
        p, _, cls = self.worked()
        with pytest.raises(InvalidArgumentError, match="0 representatives for 1 clusters"):
            avg_dissimilarity(p, (), *cls)

    def test_matches_pure_python_oracle(self):
        rs = np.random.default_rng(12)
        for _ in range(20):
            n = int(rs.integers(4, 16))
            X = random_unit_rows(rs, n, 4)
            # random partition into 3 chunks + random member reps
            bounds = sorted(rs.choice(np.arange(1, n), size=2, replace=False))
            ids = list(range(n))
            chunks = [ids[: bounds[0]], ids[bounds[0] : bounds[1]], ids[bounds[1] :]]
            p = part(0, *chunks)
            reps = [int(min(c)) for c in chunks]
            entry = avg_dissimilarity(p, reps, *positional(X))
            expect = _oracles.class_avg_dissim(chunks, reps, lambda i: X[i])
            if expect is None:
                assert entry is None
            else:
                assert entry.mean == pytest.approx(expect[0], abs=1e-12)
                for got_m, exp_m in zip(entry.cluster_means, expect[1]):
                    assert got_m == pytest.approx(exp_m, abs=1e-12)


class TestAssembleReport:
    def entries(self):
        return [
            ClassDissimilarity(0, 0.2, (0.1, 0.3)),
            ClassDissimilarity(1, 0.6, (0.6,)),
        ]

    def test_cluster_weighted_default(self):
        report = assemble_dissimilarity_report(self.entries())
        assert not report.class_weighted
        # mean over clusters: (0.1 + 0.3 + 0.6) / 3
        assert report.overall == pytest.approx(1.0 / 3)
        assert report.per_class == {0: 0.2, 1: 0.6}
        assert report.groups_counted == {0: 2, 1: 1}

    def test_class_weighted(self):
        report = assemble_dissimilarity_report(self.entries(), class_weighted=True)
        assert report.class_weighted
        assert report.overall == pytest.approx(0.4)  # (0.2 + 0.6) / 2

    def test_empty(self):
        report = assemble_dissimilarity_report([])
        assert report.overall is None
        assert report.per_class == {}


class TestNearestExcluded:
    def test_only_outside_point(self):
        pts = [(0, [1.0, 0.0]), (1, [1.0, 0.001]), (2, [0.0, 1.0])]
        pairs = nearest_excluded(part(0, {0, 1}, {2}), (0, 2), *class_of(pts))
        assert pairs == [NearestExcludedPair(0, 2, 1.0)]

    def test_nearest_of_two_outside(self):
        pts = [(0, [1.0, 0.0]), (1, [1.0, 0.001]), (2, [0.9, 0.1]), (3, [0.0, 1.0])]
        pairs = nearest_excluded(part(0, {0, 1}, {2}, {3}), (0, 2, 3), *class_of(pts))
        assert len(pairs) == 1  # only the size-2 cluster qualifies
        assert pairs[0].retained_id == 0
        assert pairs[0].neighbor_id == 2
        assert pairs[0].dissimilarity == pytest.approx(D_NEAR_MISS, abs=1e-15)

    def test_single_cluster_class_empty(self):
        pts = [(0, [1.0, 0.0]), (1, [1.0, 0.001])]
        assert nearest_excluded(part(0, {0, 1}), (0,), *class_of(pts)) == []

    def test_all_singletons_empty(self):
        pts = [(0, [1.0, 0.0]), (1, [0.0, 1.0])]
        assert nearest_excluded(part(0, {0}, {1}), (0, 1), *class_of(pts)) == []

    def test_tie_breaks_to_smallest_id(self):
        v = [0.6, 0.8]
        pts = [(0, [1.0, 0.0]), (1, [1.0, 0.0]), (5, v), (4, v)]
        p = part(0, {0, 1}, {4}, {5}, ids=[0, 1, 5, 4])
        pairs = nearest_excluded(p, (0, 4, 5), *class_of(pts))
        assert pairs[0].neighbor_id == 4

    def test_neighbor_never_inside(self):
        rs = np.random.default_rng(3)
        for _ in range(20):
            n = int(rs.integers(5, 14))
            X = random_unit_rows(rs, n, 3)
            cut = int(rs.integers(2, n))
            p = part(0, set(range(cut)), *({i} for i in range(cut, n)))
            reps = [i and cut + i - 1 for i in range(n - cut + 1)]
            pairs = nearest_excluded(p, reps, *positional(X))
            for pr in pairs:
                assert pr.neighbor_id >= cut

    def test_matches_pure_python_oracle(self):
        rs = np.random.default_rng(9)
        for _ in range(20):
            n = int(rs.integers(5, 12))
            X = random_unit_rows(rs, n, 3)
            pts = [(i, X[i]) for i in range(n)]
            cut = int(rs.integers(2, n - 1))
            clusters = [set(range(cut)), set(range(cut, n))]
            reps = (0, cut)
            got = nearest_excluded(part(0, *clusters), reps, *class_of(pts))
            expect = _oracles.nearest_excluded(clusters, reps, pts)
            assert [(p.retained_id, p.neighbor_id) for p in got] == [
                (r, nb) for r, nb, _ in expect
            ]
            for p, (_, _, d) in zip(got, expect):
                assert p.dissimilarity == pytest.approx(d, abs=1e-12)

    def test_peak_allocation_is_one_gather_buffer(self):
        # A 1300 x 2048 class at fraction 0.9: 130 pairs, the rest singletons.
        # The gathers fill one (n, d) buffer in place; a slice assignment from
        # ``U[idx]`` would allocate a second copy of the rows it moves.
        n, d = 1300, 2048
        X = random_unit_rows(np.random.default_rng(31), n, d)
        U = unit_rows(X)
        p = part(0, *({2 * i, 2 * i + 1} for i in range(130)), *({i} for i in range(260, n)))
        reps = tuple(min(c) for c in clusters(p))
        tracemalloc.start()
        try:
            pairs = nearest_excluded(p, reps, X, U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) == 130
        assert peak <= 1.1 * n * d * 8

    def test_exact_twin_outside_the_cluster(self):
        # Each class holds four groups of four rows equal under ``==`` (some
        # differ only in the sign of a zero).  Fraction 0.9 keeps 4 of the 12
        # height-0 merges: one group joins fully, the next only in a pair, so
        # that pair's retained sample has two twins outside, tied at 0.0.
        rs = np.random.default_rng(4)
        n, classes = 40, 6
        X = random_unit_rows(rs, n * classes, 8)
        X[:, 3] = 0.0
        for c in range(classes):
            for group in (c * n + rs.permutation(n)[:16]).reshape(4, 4):
                X[group] = X[group[0]]
                X[group[1::2], 3] = -0.0
        ds = EmbeddingDataset.from_arrays(
            rs.permutation(10 * n * classes)[: n * classes], np.repeat(range(classes), n), X
        )
        _, results = build_cluster_subset(ds, 0.9)
        split = ties = 0
        for cid, res in results.items():
            ids, Xc = ds.class_arrays(cid)
            for p in nearest_excluded(res.partition, res.reps, Xc, unit_rows(Xc)):
                cluster = next(c for c in clusters(res.partition) if p.retained_id in c)
                rep = Xc[ids == p.retained_id][0]
                twins = [int(s) for s, v in zip(ids, Xc) if (v == rep).all() and s not in cluster]
                if twins:
                    assert (p.neighbor_id, p.dissimilarity) == (min(twins), 0.0)
                    split += 1
                    ties += len(twins) > 1
        assert split == ties == classes

    @staticmethod
    def cut_one_merge(X, ids):
        """Take the first merge only (k = n - 1) and check both reports with
        ``==`` against the per-cluster reference; return the partition's pair
        (in rows) and the nearest-excluded pairs."""
        _, p = agglomerate_fast(X, len(X) - 1, sample_ids=ids)
        reps, means, pairs = reference(ids, X, clusters(p))
        U = unit_rows(X)
        assert nearest_excluded(p, reps, X, U) == pairs
        assert avg_dissimilarity(p, reps, X, U).cluster_means == means
        pair = next(c for c in clusters(p) if len(c) == 2)
        return sorted(np.flatnonzero(np.isin(ids, list(pair))).tolist()), pairs

    # Ids ascending, and descending in row order (member rows then come
    # unsorted, and a tie's smallest id is its last row).
    IDS = [np.arange(20), 3 * np.arange(20)[::-1]]

    @pytest.mark.parametrize("ids", IDS, ids=["ascending", "descending"])
    def test_twin_just_after_the_members(self, ids):
        # Three rows equal under ``==`` (one with -0.0 for 0.0) at rows 3-5;
        # the cut falls between their two height-0 merges, so row 5 is the
        # representative's twin outside, at the position of the members' step.
        X = random_unit_rows(np.random.default_rng(5), 20, 8)
        X[3:6] = X[3]
        X[3:6, 2] = 0.0
        X[4, 2] = -0.0
        rows, pairs = self.cut_one_merge(X, ids)
        assert rows == [3, 4]
        assert [(p.neighbor_id, p.dissimilarity) for p in pairs] == [(ids[5], 0.0)]

    def test_two_outside_twins_smallest_id_wins(self):
        X = random_unit_rows(np.random.default_rng(6), 20, 8)
        X[3:7] = X[3]
        X[3:7:2, 0] = 0.0
        X[4:7:2, 0] = -0.0
        ids = self.IDS[1]
        rows, pairs = self.cut_one_merge(X, ids)
        assert rows == [3, 4]
        assert [(p.neighbor_id, p.dissimilarity) for p in pairs] == [(ids[6], 0.0)]

    @pytest.mark.parametrize("ids", IDS, ids=["ascending", "descending"])
    def test_near_duplicates_clip_to_a_tie(self, ids):
        # Rows (1, 1, 1) scaled by powers of two share their unit row, whose
        # squared norm rounds above 1, so ``1 - g`` clips to 0.0 for each of
        # them although no two are equal under ``==``.
        X = random_unit_rows(np.random.default_rng(7), 20, 3)
        X[3:7] = np.ones((1, 3)) * [[1.0], [2.0], [4.0], [8.0]]
        U = unit_rows(X)
        assert 1.0 - U[3] @ U[3] < 0.0 and len(set(map(bytes, U[3:7]))) == 1
        rows, pairs = self.cut_one_merge(X, ids)
        outside = [r for r in range(3, 7) if r not in rows]
        assert [(p.neighbor_id, p.dissimilarity) for p in pairs] == [(min(ids[outside]), 0.0)]


class TestEmitters:
    def histograms(self):
        return [
            size_histogram(part(1, {0, 1}, {2})),
            size_histogram(part(0, {3}, {4}, {5, 6, 7})),
        ]

    def test_histogram_csv(self):
        text = histogram_to_csv(self.histograms())
        lines = text.splitlines()
        assert lines[0] == "class_id,size,count"
        assert lines[1:] == ["0,1,2", "0,3,1", "1,1,1", "1,2,1"]
        assert text.endswith("\n")

    def test_histogram_json(self):
        doc = json.loads(histogram_to_json(self.histograms()))
        assert doc == {"0": {"1": 2, "3": 1}, "1": {"1": 1, "2": 1}}

    def test_histogram_table_alignment(self):
        lines = histogram_to_table(self.histograms()).splitlines()
        assert lines[0].split() == ["class", "size", "count"]
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # fixed-width columns

    def test_dissimilarity_json(self):
        report = assemble_dissimilarity_report(
            [ClassDissimilarity(0, 0.25, (0.25,))]
        )
        doc = json.loads(dissimilarity_to_json(report))
        assert doc["weighting"] == "cluster"
        assert doc["overall"] == 0.25
        assert doc["per_class"] == {"0": 0.25}
        assert doc["groups_counted"] == {"0": 1}

    def test_dissimilarity_table(self):
        report = assemble_dissimilarity_report(
            [ClassDissimilarity(0, 0.25, (0.2, 0.3)), ClassDissimilarity(2, 0.5, (0.5,))]
        )
        lines = dissimilarity_to_table(report).splitlines()
        assert lines[0].split() == ["class", "groups", "avg_dissimilarity"]
        assert lines[1].split() == ["0", "2", "2.500000e-01"]
        assert lines[-1].split() == ["all", "mean/group", f"{1.0 / 3:.6e}"]

    def test_dissimilarity_table_class_weighted_label(self):
        report = assemble_dissimilarity_report(
            [ClassDissimilarity(0, 0.25, (0.25,))], class_weighted=True
        )
        assert "mean/class" in dissimilarity_to_table(report)

    def test_pairs_json(self):
        doc = json.loads(
            pairs_to_json({4: [NearestExcludedPair(7, 9, 0.5)], 2: []})
        )
        assert list(doc) == ["2", "4"]
        assert doc["4"] == [
            {"retained_id": 7, "neighbor_id": 9, "dissimilarity": 0.5}
        ]

    def test_pairs_table(self):
        lines = pairs_to_table({1: [NearestExcludedPair(3, 5, 0.125)]}).splitlines()
        assert lines[0].split() == ["class", "retained", "neighbor", "dissimilarity"]
        assert lines[1].split() == ["1", "3", "5", "1.250000e-01"]

    def test_emitters_deterministic(self):
        hs = self.histograms()
        report = assemble_dissimilarity_report([ClassDissimilarity(0, 0.1, (0.1,))])
        pairs = {0: [NearestExcludedPair(0, 1, 0.25)]}
        for emit, arg in [
            (histogram_to_csv, hs),
            (histogram_to_json, hs),
            (histogram_to_table, hs),
            (dissimilarity_to_json, report),
            (dissimilarity_to_table, report),
            (pairs_to_json, pairs),
            (pairs_to_table, pairs),
        ]:
            a, b = emit(arg), emit(arg)
            assert a == b
            assert a.endswith("\n")
