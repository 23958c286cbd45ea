from __future__ import annotations

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import clusters, random_unit_rows
from redunda import metric
from redunda.analysis import (
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


def part(*clusters, ids=None):
    """``clusters`` of sample ids over a class whose ids in row order are
    ``ids``, by default the clusters' ids ascending."""
    return Partition.from_groups(sorted(set().union(*clusters)) if ids is None else ids, clusters)


def class_of(points):
    """``(X, U)`` of a class given as ``(sample_id, vector)`` pairs."""
    X = np.array([v for _, v in points], dtype=np.float64)
    return X, unit_rows(X)


def positional(X):
    return class_of(list(enumerate(X)))


class TestSizeHistogram:
    def test_pair_and_singleton(self):
        assert size_histogram(part({0, 1}, {2})) == {1: 1, 2: 1}

    def test_all_singletons(self):
        assert size_histogram(part(*({i} for i in range(7)))) == {1: 7}

    def test_counts_sorted_by_size(self):
        h = size_histogram(part({0, 1, 2}, {3}, {4, 5}, {6, 7}))
        assert list(h) == [1, 2, 3]
        assert h == {1: 1, 2: 2, 3: 1}

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_mass_conservation(self, sizes):
        nxt, clusters = 0, []
        for s in sizes:
            clusters.append(set(range(nxt, nxt + s)))
            nxt += s
        h = size_histogram(part(*clusters))
        assert sum(size * count for size, count in h.items()) == nxt
        assert sum(h.values()) == len(sizes)


class TestAvgDissimilarity:
    def worked(self):
        cls = positional([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        return part({0, 1, 2}), (0,), cls

    def test_worked_example(self):
        # single cluster, rep (1,0): mean of {d((1,1)), d((0,1))} = {0.2928..., 1.0}
        p, reps, cls = self.worked()
        entry = avg_dissimilarity(p, reps, *cls)
        assert entry == (pytest.approx(MEAN_DIAG_ORTHO, abs=1e-15),)

    def test_duplicate_cluster_is_exactly_zero(self):
        cls = positional([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        entry = avg_dissimilarity(part({0, 1, 2}), (1,), *cls)
        assert entry == (0.0,)

    def test_singletons_do_not_qualify(self):
        cls = positional([[1.0, 0.0], [0.0, 1.0]])
        assert avg_dissimilarity(part({0}, {1}), (0, 1), *cls) == ()

    def test_mixed_cluster_sizes(self):
        cls = positional([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.3, 0.4]])
        p = part({0, 1, 2}, {3})
        entry = avg_dissimilarity(p, (0, 3), *cls)
        assert len(entry) == 1  # singleton skipped

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
            p = part(*chunks)
            reps = [int(min(c)) for c in chunks]
            entry = avg_dissimilarity(p, reps, *positional(X))
            expect = _oracles.class_avg_dissim(chunks, reps, lambda i: X[i])
            if expect is None:
                assert entry == ()
            else:
                assert float(np.mean(entry)) == pytest.approx(expect[0], abs=1e-12)
                for got_m, exp_m in zip(entry, expect[1], strict=True):
                    assert got_m == pytest.approx(exp_m, abs=1e-12)


class TestAssembleReport:
    """The dissimilarity writers assemble the report from the class entries:
    ``overall`` averages every cluster by default, or the class means, taking
    the classes in ascending order whatever the mapping's order."""

    ENTRIES = {1: (0.1,), 0: (0.3, 0.2)}

    def report(self, entries, **kw):
        return json.loads(dissimilarity_to_json(entries, **kw))

    def test_cluster_weighted_default(self):
        doc = self.report(self.ENTRIES)
        assert doc["weighting"] == "cluster"
        # The clusters of class 0, then of class 1; in the mapping's order
        # the sum would round to another mean.
        assert doc["overall"] == float(np.mean([0.3, 0.2, 0.1])) != float(np.mean([0.1, 0.3, 0.2]))
        assert doc["per_class"] == {"0": 0.25, "1": 0.1}
        assert doc["groups_counted"] == {"0": 2, "1": 1}

    def test_class_weighted(self):
        doc = self.report(self.ENTRIES, class_weighted=True)
        assert doc["weighting"] == "class"
        assert doc["overall"] == float(np.mean([0.25, 0.1]))

    def test_empty(self):
        assert self.report({}) == {
            "weighting": "cluster", "overall": None, "per_class": {}, "groups_counted": {},
        }


class TestNearestExcluded:
    def test_only_outside_point(self):
        pts = [(0, [1.0, 0.0]), (1, [1.0, 0.001]), (2, [0.0, 1.0])]
        pairs = nearest_excluded(part({0, 1}, {2}), (0, 2), *class_of(pts))
        assert pairs == ((0, 2, 1.0),)

    def test_nearest_of_two_outside(self):
        pts = [(0, [1.0, 0.0]), (1, [1.0, 0.001]), (2, [0.9, 0.1]), (3, [0.0, 1.0])]
        pairs = nearest_excluded(part({0, 1}, {2}, {3}), (0, 2, 3), *class_of(pts))
        assert len(pairs) == 1  # only the size-2 cluster qualifies
        (retained, neighbor, d), = pairs
        assert (retained, neighbor) == (0, 2)
        assert d == pytest.approx(D_NEAR_MISS, abs=1e-15)

    def test_single_cluster_class_empty(self):
        pts = [(0, [1.0, 0.0]), (1, [1.0, 0.001])]
        assert nearest_excluded(part({0, 1}), (0,), *class_of(pts)) == ()

    def test_all_singletons_empty(self):
        pts = [(0, [1.0, 0.0]), (1, [0.0, 1.0])]
        assert nearest_excluded(part({0}, {1}), (0, 1), *class_of(pts)) == ()

    def test_tie_breaks_to_smallest_id(self):
        v = [0.6, 0.8]
        pts = [(0, [1.0, 0.0]), (1, [1.0, 0.0]), (5, v), (4, v)]
        p = part({0, 1}, {4}, {5}, ids=[0, 1, 5, 4])
        pairs = nearest_excluded(p, (0, 4, 5), *class_of(pts))
        assert pairs[0][1] == 4

    def test_neighbor_never_inside(self):
        rs = np.random.default_rng(3)
        for _ in range(20):
            n = int(rs.integers(5, 14))
            X = random_unit_rows(rs, n, 3)
            cut = int(rs.integers(2, n))
            p = part(set(range(cut)), *({i} for i in range(cut, n)))
            reps = [i and cut + i - 1 for i in range(n - cut + 1)]
            pairs = nearest_excluded(p, reps, *positional(X))
            for _, neighbor, _ in pairs:
                assert neighbor >= cut

    def test_matches_pure_python_oracle(self):
        rs = np.random.default_rng(9)
        for _ in range(20):
            n = int(rs.integers(5, 12))
            X = random_unit_rows(rs, n, 3)
            pts = [(i, X[i]) for i in range(n)]
            cut = int(rs.integers(2, n - 1))
            clusters = [set(range(cut)), set(range(cut, n))]
            reps = (0, cut)
            got = nearest_excluded(part(*clusters), reps, *class_of(pts))
            expect = _oracles.nearest_excluded(clusters, reps, pts)
            assert [(r, nb) for r, nb, _ in got] == [(r, nb) for r, nb, _ in expect]
            for (_, _, got_d), (_, _, d) in zip(got, expect):
                assert got_d == pytest.approx(d, abs=1e-12)

    def test_peak_allocation_is_parked_rows_and_products(self):
        # A 1300 x 2048 class at fraction 0.9: 130 pairs, the rest singletons.
        # The outside rows are laid out in U itself, by 1-d moves that need no
        # temporary; what is allocated is each pair's two parked rows and the
        # products' outputs, far below a second U-sized buffer.  A 2-d slice
        # assignment would allocate a copy of the rows it moves.
        n, d = 1300, 2048
        X = random_unit_rows(np.random.default_rng(31), n, d)
        U = unit_rows(X)
        U0 = U.copy()
        p = part(*({2 * i, 2 * i + 1} for i in range(130)), *({i} for i in range(260, n)))
        reps = tuple(min(c) for c in clusters(p))
        tracemalloc.start()
        try:
            pairs = nearest_excluded(p, reps, X, U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) == 130
        assert peak <= 0.05 * n * d * 8
        assert np.array_equal(U.view(np.int64), U0.view(np.int64))

    def test_unit_rows_put_back_on_an_error(self, monkeypatch):
        rs = np.random.default_rng(33)
        X = random_unit_rows(rs, 30, 4)
        U = unit_rows(X)
        U0 = U.copy()
        p = part(*({3 * i, 3 * i + 1, 3 * i + 2} for i in range(10)))
        calls, one_to_many = [], metric.one_to_many

        def failing(*args):
            calls.append(1)
            if len(calls) == 4:
                raise ZeroDivisionError
            return one_to_many(*args)

        monkeypatch.setattr(metric, "one_to_many", failing)
        # ``err`` keeps the traceback, and so the walk, alive, as a caller
        # that chains the error does: U must be back all the same.
        with pytest.raises(ZeroDivisionError) as err:
            nearest_excluded(p, tuple(3 * i for i in range(10)), X, U)
        assert err.traceback and np.array_equal(U.view(np.int64), U0.view(np.int64))

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
        ds = EmbeddingDataset(
            rs.permutation(10 * n * classes)[: n * classes], np.repeat(range(classes), n), X
        )
        _, results = build_cluster_subset(ds, 0.9)
        split = ties = 0
        for cid, res in results.items():
            ids, Xc = ds.class_arrays(cid)
            pairs = nearest_excluded(res.partition, res.reps, Xc, unit_rows(Xc))
            for retained, neighbor, d in pairs:
                cluster = next(c for c in clusters(res.partition) if retained in c)
                rep = Xc[ids == retained][0]
                twins = [int(s) for s, v in zip(ids, Xc) if (v == rep).all() and s not in cluster]
                if twins:
                    assert (neighbor, d) == (min(twins), 0.0)
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
        assert avg_dissimilarity(p, reps, X, U) == means
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
        assert [(nb, d) for _, nb, d in pairs] == [(ids[5], 0.0)]

    def test_two_outside_twins_smallest_id_wins(self):
        X = random_unit_rows(np.random.default_rng(6), 20, 8)
        X[3:7] = X[3]
        X[3:7:2, 0] = 0.0
        X[4:7:2, 0] = -0.0
        ids = self.IDS[1]
        rows, pairs = self.cut_one_merge(X, ids)
        assert rows == [3, 4]
        assert [(nb, d) for _, nb, d in pairs] == [(ids[6], 0.0)]

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
        assert [(nb, d) for _, nb, d in pairs] == [(min(ids[outside]), 0.0)]


class TestUnitRowsRefused:
    """Both reports refuse a ``U`` that cannot be the class's unit rows, and
    ``nearest_excluded``, which rearranges ``U`` in place, one it cannot
    rearrange: before any row is read or moved."""

    @staticmethod
    def case():
        X = random_unit_rows(np.random.default_rng(34), 6, 3)
        return part({0, 1}, {2, 3}, {4}, {5}), (0, 2, 4, 5), X

    @pytest.mark.parametrize("report", [avg_dissimilarity, nearest_excluded])
    @pytest.mark.parametrize("shape", [(5, 3), (7, 3), (6, 4)])
    def test_rows_of_another_shape(self, report, shape):
        p, reps, X = self.case()
        U = unit_rows(random_unit_rows(np.random.default_rng(35), *shape))
        with pytest.raises(InvalidArgumentError) as err:
            report(p, reps, X, U)
        assert str(err.value) == f"unit rows {shape} do not match rows (6, 3)"

    def test_nearest_excluded_needs_an_array_of_its_own(self):
        p, reps, X = self.case()
        read_only = unit_rows(X)
        read_only.flags.writeable = False
        for bad in (read_only, np.asfortranarray(unit_rows(X)), unit_rows(X)[::-1], X):
            before = bad.copy()
            with pytest.raises(InvalidArgumentError, match="C-contiguous, writable array"):
                nearest_excluded(p, reps, X, bad)
            assert np.array_equal(bad, before)
        assert len(nearest_excluded(p, reps, X, unit_rows(X))) == 2


# The exact text of every writer on one two-class input.  Classes 10 and 2,
# and sizes 12 and 2, so the JSON writers' sorted string keys ("10" < "2")
# and the tables' and CSV's ascending numbers give different orders.
HISTOGRAM_CSV = """\
class_id,size,count
2,1,2
2,2,1
10,1,1
10,2,1
10,12,1
"""
HISTOGRAM_JSON = """\
{
  "10": {
    "1": 1,
    "12": 1,
    "2": 1
  },
  "2": {
    "1": 2,
    "2": 1
  }
}
"""
HISTOGRAM_TABLE = """\
   class      size     count
       2         1         2
       2         2         1
      10         1         1
      10         2         1
      10        12         1
"""
DISSIMILARITY_JSON = """\
{
  "groups_counted": {
    "10": 2,
    "2": 1
  },
  "overall": %s,
  "per_class": {
    "10": 0.2,
    "2": 0.6
  },
  "weighting": "%s"
}
"""
DISSIMILARITY_TABLE = """\
   class      groups   avg_dissimilarity
       2           1        6.000000e-01
      10           2        2.000000e-01
     all  %s        %s
"""
PAIRS_JSON = """\
{
  "10": [
    {
      "dissimilarity": 0.5,
      "neighbor_id": 12,
      "retained_id": 5
    },
    {
      "dissimilarity": 0.3333333333333333,
      "neighbor_id": 12,
      "retained_id": 13
    }
  ],
  "2": [
    {
      "dissimilarity": 0.125,
      "neighbor_id": 3,
      "retained_id": 1
    }
  ],
  "4": []
}
"""
PAIRS_TABLE = """\
   class      retained      neighbor     dissimilarity
       2             1             3      1.250000e-01
      10             5            12      5.000000e-01
      10            13            12      3.333333e-01
"""


class TestEmitters:
    """Each writer takes ``{class_id: that class's entry}``, in any key order."""

    @staticmethod
    def histograms():
        return {
            10: size_histogram(part(set(range(12)), {12}, {13, 14})),
            2: size_histogram(part({0, 1}, {2}, {3})),
        }

    ENTRIES = {10: (0.1, 0.3), 2: (0.6,)}
    PAIRS = {
        10: ((5, 12, 0.5), (13, 12, 1 / 3)),
        2: ((1, 3, 0.125),),
        4: (),  # all singletons: the key stays in the JSON, the table has no row
    }

    def test_histogram_csv(self):
        assert histogram_to_csv(self.histograms()) == HISTOGRAM_CSV

    def test_histogram_json(self):
        assert histogram_to_json(self.histograms()) == HISTOGRAM_JSON

    def test_histogram_table_alignment(self):
        text = histogram_to_table(self.histograms())
        assert text == HISTOGRAM_TABLE
        assert len({len(line) for line in text.splitlines()}) == 1  # fixed-width columns

    def test_dissimilarity_json(self):
        # cluster-weighted: (0.6 + 0.1 + 0.3) / 3, clusters in class order
        assert dissimilarity_to_json(self.ENTRIES) == DISSIMILARITY_JSON % (
            "0.3333333333333333", "cluster"
        )

    def test_dissimilarity_json_class_weighted(self):
        text = dissimilarity_to_json(self.ENTRIES, class_weighted=True)
        assert text == DISSIMILARITY_JSON % ("0.4", "class")  # (0.6 + 0.2) / 2

    def test_dissimilarity_table(self):
        text = dissimilarity_to_table(self.ENTRIES)
        assert text == DISSIMILARITY_TABLE % ("mean/group", "3.333333e-01")

    def test_dissimilarity_table_class_weighted_label(self):
        text = dissimilarity_to_table(self.ENTRIES, class_weighted=True)
        assert text == DISSIMILARITY_TABLE % ("mean/class", "4.000000e-01")

    def test_pairs_json(self):
        assert pairs_to_json(self.PAIRS) == PAIRS_JSON

    def test_pairs_table(self):
        assert pairs_to_table(self.PAIRS) == PAIRS_TABLE

    @pytest.mark.parametrize("class_weighted", [False, True])
    def test_empty_mapping(self, class_weighted):
        # No class: ``overall`` is null and each table holds only its header.
        weighting = "class" if class_weighted else "cluster"
        assert dissimilarity_to_json({}, class_weighted=class_weighted) == (
            '{\n  "groups_counted": {},\n  "overall": null,\n  "per_class": {},\n'
            f'  "weighting": "{weighting}"\n}}\n'
        )
        for text, writer in [
            (HISTOGRAM_CSV, histogram_to_csv),
            (HISTOGRAM_TABLE, histogram_to_table),
            (DISSIMILARITY_TABLE, lambda e: dissimilarity_to_table(e, class_weighted=class_weighted)),
            (PAIRS_TABLE, pairs_to_table),
        ]:
            assert writer({}) == text.splitlines(keepends=True)[0]
        for writer in (histogram_to_json, pairs_to_json):
            assert writer({}) == "{}\n"

    def test_empty_dissimilarity_entry_is_left_out(self):
        # A class with no cluster of two members has the entry (): the
        # writers leave it out, and take no mean of nothing.
        for writer in (dissimilarity_to_json, dissimilarity_to_table):
            for class_weighted in (False, True):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    text = writer({0: (0.25,), 1: ()}, class_weighted=class_weighted)
                assert text == writer({0: (0.25,)}, class_weighted=class_weighted)
                assert "nan" not in text.lower()

    def test_emitters_deterministic(self):
        hs = self.histograms()
        for emit, arg in [
            (histogram_to_csv, hs),
            (histogram_to_json, hs),
            (histogram_to_table, hs),
            (dissimilarity_to_json, self.ENTRIES),
            (dissimilarity_to_table, self.ENTRIES),
            (pairs_to_json, self.PAIRS),
            (pairs_to_table, self.PAIRS),
        ]:
            a, b = emit(arg), emit(dict(reversed(arg.items())))
            assert a == b
            assert a.endswith("\n")
