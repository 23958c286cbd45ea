from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import cluster_dissimilarity, condensed_index, pairwise_full_block
from conftest import NO_DIRECTION, clusters, random_unit_rows, with_duplicates
from redunda import metric
from redunda.cluster import agglomerate_fast
from redunda.errors import InvalidArgumentError
from redunda.metric import (
    condensed_offsets,
    cosine_dissimilarity,
    first_without_direction,
    one_to_many,
    pairwise_condensed,
    unit_rows,
)

# Frozen oracle values, computed once by direct evaluation of the formula.
D_10_11 = 0.29289321881345254  # d((1,0),(1,1)) = 1 - 1/sqrt(2)
D_101_10 = 0.004962809790010736  # d((1,0.1),(1,0))
D_10_1MILLI = 4.999996250365513e-07  # d((1,0),(1,0.001))


class TestCosineDissimilarity:
    def test_quarter_turn_against_diagonal(self):
        assert cosine_dissimilarity([1, 0], [1, 1]) == pytest.approx(D_10_11, abs=1e-15)

    def test_near_parallel(self):
        assert cosine_dissimilarity([1, 0.1], [1, 0]) == pytest.approx(
            D_101_10, abs=1e-15
        )

    def test_orthogonal_is_one(self):
        assert cosine_dissimilarity([1, 0], [0, 1]) == 1.0

    def test_antipodal_is_two(self):
        got = cosine_dissimilarity([1.0, 2.0], [-1.0, -2.0])
        assert got == pytest.approx(2.0, abs=1e-12)
        assert got <= 2.0  # clamp keeps the range even when rounding overshoots

    def test_identical_is_zero(self):
        assert cosine_dissimilarity([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_zero_norm_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cosine_dissimilarity([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(InvalidArgumentError):
            cosine_dissimilarity([1.0, 0.0], [1e-200, 0.0])
        # Every vector without a direction, either side: never NaN.
        for row, reason in NO_DIRECTION:
            with pytest.raises(InvalidArgumentError, match=f"^x1: {reason}$"):
                cosine_dissimilarity(row, [1.0, 0.0])
            with pytest.raises(InvalidArgumentError, match=f"^x2: {reason}$"):
                cosine_dissimilarity([1.0, 0.0], row)
            with pytest.raises(InvalidArgumentError, match=f"^x1: {reason}$"):
                cosine_dissimilarity(row, row)
        with pytest.raises(InvalidArgumentError, match="^x1: vector norm below"):
            cosine_dissimilarity([], [])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cosine_dissimilarity([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_matches_pure_python_oracle(self):
        rs = np.random.default_rng(5)
        for _ in range(200):
            a = rs.normal(size=4)
            b = rs.normal(size=4)
            assert cosine_dissimilarity(a, b) == pytest.approx(
                _oracles.cos_dissim(a, b), abs=1e-12
            )

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6),
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=6),
    )
    @settings(max_examples=300)
    def test_symmetry_and_range(self, a, b):
        dim = min(len(a), len(b))
        a, b = a[:dim], b[:dim]
        if math.sqrt(sum(x * x for x in a)) < 1e-15:
            a = [1.0] * dim
        if math.sqrt(sum(x * x for x in b)) < 1e-15:
            b = [1.0] * dim
        d = cosine_dissimilarity(a, b)
        assert d == cosine_dissimilarity(b, a)  # exactly symmetric
        assert 0.0 <= d <= 2.0

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        st.floats(0.001, 1000),
    )
    @settings(max_examples=200)
    def test_scale_invariance(self, a, s):
        if math.sqrt(sum(x * x for x in a)) < 1e-6:
            a = [1.0, 2.0, 3.0]
        b = [2.0, -1.0, 0.5]
        assert cosine_dissimilarity([s * x for x in a], b) == pytest.approx(
            cosine_dissimilarity(a, b), abs=1e-12
        )


class TestClusterDissimilarity:
    def test_worked_pair(self):
        got = cluster_dissimilarity([(1, 0), (1, 0.1)], [(1, 0)])
        assert got == pytest.approx(D_101_10, abs=1e-15)

    def test_max_over_cross_pairs(self):
        assert cluster_dissimilarity([(1, 0)], [(0, 1), (1, 1)]) == 1.0

    def test_singletons_reduce_to_point_metric(self):
        a, b = [1.0, 2.0], [-3.0, 0.7]
        assert cluster_dissimilarity([a], [b]) == cosine_dissimilarity(a, b)

    def test_empty_cluster_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cluster_dissimilarity([], [(1, 0)])

    def test_lance_williams_identity_exact(self):
        # D(A|B, C) == max(D(A,C), D(B,C)) holds exactly: max is arithmetic-free.
        rs = np.random.default_rng(11)
        for _ in range(100):
            A = list(rs.normal(size=(rs.integers(1, 4), 3)))
            B = list(rs.normal(size=(rs.integers(1, 4), 3)))
            C = list(rs.normal(size=(rs.integers(1, 4), 3)))
            assert cluster_dissimilarity(A + B, C) == max(
                cluster_dissimilarity(A, C), cluster_dissimilarity(B, C)
            )


class TestPairwiseCondensed:
    def test_layout_helpers_agree(self):
        for n in (2, 3, 7, 20):
            offs = condensed_offsets(n)
            flat = 0
            for i in range(n - 1):
                assert offs[i] == condensed_index(n, i, i + 1)
                for j in range(i + 1, n):
                    assert condensed_index(n, i, j) == flat
                    assert condensed_index(n, j, i) == flat  # order-insensitive
                    flat += 1
            assert flat == n * (n - 1) // 2

    def test_matches_scalar_metric(self):
        rs = np.random.default_rng(3)
        for n, dim in [(2, 2), (5, 3), (40, 8), (17, 64)]:
            X = rs.normal(size=(n, dim))
            cond = pairwise_condensed(X)
            assert cond.shape == (n * (n - 1) // 2,)
            for i in range(n):
                for j in range(i + 1, n):
                    assert cond[condensed_index(n, i, j)] == pytest.approx(
                        cosine_dissimilarity(X[i], X[j]), abs=1e-12
                    )

    def test_single_point_is_empty(self):
        assert pairwise_condensed(np.array([[1.0, 2.0]])).shape == (0,)

    def test_zero_row_rejected_with_index(self):
        X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidArgumentError, match="row 1"):
            pairwise_condensed(X)
        for row, reason in NO_DIRECTION:
            X = np.array([[1.0, 0.0], [0.0, 1.0], row, [1.0, 1.0]])
            with pytest.raises(InvalidArgumentError, match=f"^row 2: {reason}$"):
                pairwise_condensed(X)

    def test_unit_rows_refuses_rows_without_direction(self):
        for row, reason in NO_DIRECTION:
            X = np.array([[1.0, 0.0], row, [0.0, 1.0]])
            with pytest.raises(InvalidArgumentError, match=f"^row 1: {reason}$"):
                unit_rows(X)

    def test_one_to_many_refuses_x_without_direction(self):
        M = np.array([[1.0, 0.0], [0.0, 1.0]])
        for row, reason in NO_DIRECTION:
            with pytest.raises(InvalidArgumentError, match=f"^x: {reason}$"):
                one_to_many(np.array(row), unit_rows(M), [])

    def test_first_without_direction_tries_one_reason_at_a_time(self):
        over, zero, nan = [1e200, 1e200], [0.0, 0.0], [np.nan, 1.0]
        assert first_without_direction(np.array([[1.0, 0.0], [0.0, 1.0]])) is None
        assert first_without_direction(np.empty((0, 3))) is None
        # The reasons in the loader's order, each over all rows before the next.
        X = np.array([over, zero, [1.0, 0.0], nan])
        assert first_without_direction(X) == (3, "non-finite vector component")
        assert first_without_direction(X[:3]) == (1, "vector norm below 1e-30")
        assert first_without_direction(X[:1]) == (0, "vector norm overflows")
        # The caller's norms decide which rows are flagged; X names the reason.
        assert first_without_direction(X[2:3], np.array([0.0])) == (0, "vector norm below 1e-30")

    def test_duplicate_rows_give_exact_zero(self):
        X = np.array([[0.3, -0.7, 1.1]] * 4)
        assert pairwise_condensed(X).max() == 0.0

    @pytest.mark.parametrize("dim", [16, 64, 257, 2048])
    def test_bits_match_full_block_form(self, dim, monkeypatch):
        rs = np.random.default_rng(dim)
        x = rs.normal(size=(40, dim))
        rest = with_duplicates(rs, random_unit_rows(rs, 37, dim), 8)
        X = np.vstack([x, -x, 2.0 * x, rest])  # 157 rows
        n = len(X)
        monkeypatch.setattr(metric, "_BLOCK_ELEMS", 7 * n)  # 22 blocks of 7, then 3
        got = pairwise_condensed(X)
        assert got.tobytes() == pairwise_full_block(X).tobytes()
        opposite = [condensed_index(n, i, 40 + i) for i in range(40)]
        scaled = [condensed_index(n, i, 80 + i) for i in range(40)]
        assert got[opposite].max() == 2.0 and got.max() == 2.0
        assert got[scaled].min() == 0.0 and got[scaled].max() < 1e-14
        dup = [(i, j) for i in range(120, n) for j in range(i + 1, n) if (X[i] == X[j]).all()]
        assert dup and all(got[condensed_index(n, i, j)] == 0.0 for i, j in dup)

    def test_twins_differing_in_sign_of_zero_are_exactly_zero(self):
        # Rows equal under ``==`` whose bytes differ only where one has -0.0:
        # one rule for the pairwise matrix, the scalar kernel and the twins
        # the reports pass to one_to_many.
        rs = np.random.default_rng(17)
        base = rs.normal(size=(200, 7))
        zeros = rs.random((200, 7)) < 0.3
        zeros[:, 0] = True
        base[zeros] = 0.0
        twin = base.copy()
        twin[zeros & (rs.random((200, 7)) < 0.5)] = -0.0
        twin[:, 0] = -0.0
        X = np.empty((400, 7))
        X[0::2], X[1::2] = base, twin
        cond = pairwise_condensed(X)
        twins = {r: g.tolist() for r, g in metric.twin_index(X).items()}
        assert twins == {i: [i - i % 2, i - i % 2 + 1] for i in range(400)}
        for p in range(200):
            i = 2 * p
            assert X[i].tobytes() != X[i + 1].tobytes()
            assert cond[condensed_index(400, i, i + 1)] == 0.0
            assert cosine_dissimilarity(X[i], X[i + 1]) == 0.0
        # The twins merge first, at height 0.0.
        dendro, part = agglomerate_fast(X[:80], 40)
        assert [s.height for s in _oracles.steps(dendro)] == [0.0] * 40
        assert sorted(map(sorted, clusters(part))) == [[i, i + 1] for i in range(0, 80, 2)]

    def test_lone_twins_with_signed_zero_in_column_0(self):
        # The only row pair sharing column 0 under ``==`` has 0.0 in one row
        # and -0.0 in the other, so the duplicate screen must compare the
        # column as ``==`` does, not bit for bit.  The gram product rounds
        # this pair to 1.1e-16.
        rs = np.random.default_rng(3)
        X = rs.normal(size=(50, 7))
        X[7, 0] = 0.0
        X[31] = X[7]
        X[31, 0] = -0.0
        cond = pairwise_condensed(X)
        assert cond[condensed_index(50, 7, 31)] == 0.0
        assert np.count_nonzero(cond == 0.0) == 1

    def test_one_to_many_matches_scalar(self):
        rs = np.random.default_rng(9)
        x = rs.normal(size=6)
        x[0] = 0.0
        M = rs.normal(size=(25, 6))
        M[3] = x  # an exact duplicate
        M[5, 0] = x[0]  # equal in column 0 only: not a duplicate
        M[7] = x
        M[7, 0] = -0.0  # equal to x under ==, so also a duplicate
        U = unit_rows(M)
        assert {r: g.tolist() for r, g in metric.twin_index(M).items()} == {3: [3, 7], 7: [3, 7]}
        d = one_to_many(x, U, [3, 7])
        assert d[3] == 0.0 and d[7] == 0.0
        assert d[5] > 0.0
        for i in range(25):
            assert d[i] == pytest.approx(cosine_dissimilarity(x, M[i]), abs=1e-12)
        # Gathered rows in any order: the twins are given by position in V.
        rows = np.array([7, 20, 3, 5, 0, 19, 11])
        got = one_to_many(x, U[rows], [0, 2])
        assert got[0] == 0.0 and got[2] == 0.0 and got[3] > 0.0
        for j, i in enumerate(rows):
            assert got[j] == pytest.approx(d[i], abs=1e-12)
        plain = one_to_many(x, U[rows], [])  # no twins named: the product's values stand
        assert np.delete(plain, [0, 2]).tolist() == np.delete(got, [0, 2]).tolist()
        assert plain[[0, 2]].max() < 1e-15
        with pytest.raises(InvalidArgumentError):
            one_to_many(x, unit_rows(M[:, 1:]), [])


class TestGramBlocks:
    """The panel plan of ``_gram_blocks``: panels ``U[lo:hi] @ U[lo:].T``
    that tile the rows, ``_BLOCK_ELEMS // n`` rows each, in one mapping no
    larger than ``max(_BLOCK_ELEMS, n)`` doubles."""

    def plan(self, n, dim=3):
        U = unit_rows(np.random.default_rng(n).normal(size=(n, dim)))
        sizes, real_mmap = [], metric.mmap.mmap

        def spy(fileno, length, *args, **kwargs):
            sizes.append(length)
            return real_mmap(fileno, length, *args, **kwargs)

        panels = []
        with mock.patch.object(metric.mmap, "mmap", spy):
            for lo, hi, G in metric._gram_blocks(U):
                assert G.shape == (hi - lo, n - lo)
                assert G.tobytes() == (U[lo:hi] @ U[lo:].T).tobytes()
                panels.append((lo, hi))
        assert len(sizes) == 1 and sizes[0] <= 8 * max(metric._BLOCK_ELEMS, n)
        block = min(n, max(1, metric._BLOCK_ELEMS // n))
        assert [lo for lo, _ in panels] == list(range(0, n, block))
        assert [hi for _, hi in panels] == [lo for lo, _ in panels[1:]] + [n]
        return panels, sizes[0]

    @pytest.mark.parametrize("n", [1, 2, 1000, 1448])
    def test_one_panel_up_to_1448_rows(self, n):
        assert self.plan(n) == ([(0, n)], 8 * n * n)

    @pytest.mark.parametrize("n, panels", [(1449, 2), (3400, 6), (5000, 12)])
    def test_panels_of_larger_classes(self, n, panels):
        plan, mapped = self.plan(n)
        assert len(plan) == panels
        assert mapped <= 8 << 21  # 2**21 doubles, whatever n

    @pytest.mark.parametrize("elems, panels", [(1, 40), (39, 40), (7 * 40, 6), (7 * 40 + 39, 6),
                                               (41 * 40, 1)])
    def test_small_blocks(self, elems, panels, monkeypatch):
        monkeypatch.setattr(metric, "_BLOCK_ELEMS", elems)
        assert len(self.plan(40)[0]) == panels

    def test_empty(self):
        assert list(metric._gram_blocks(np.empty((0, 3)))) == []


class TestOutsideGathers:
    """Every view ``outside_gathers`` yields is a prefix of ``U`` holding
    ``U[outside]`` bit for bit, with the members after it; only the rows whose
    position changes move; and ``U`` is put back in its order at the end."""

    @staticmethod
    def layout(n, members):
        """Rows of ``U`` in the order the walk lays them out for ``members``."""
        members = np.sort(members)
        return np.concatenate([np.setdiff1d(np.arange(n), members), members])

    @classmethod
    def check_moves(cls, moved, n, old, new):
        """The rows moved between two layouts are those outside both member
        sets whose position changes; the members are written from a copy."""
        a, b = cls.layout(n, old), cls.layout(n, new)
        pos_a, pos_b = np.argsort(a), np.argsort(b)
        neither = np.setdiff1d(np.arange(n), np.concatenate([old, new]))
        assert sum(moved) == np.count_nonzero(pos_a[neither] != pos_b[neither])
        moved.clear()

    @classmethod
    def walk(cls, U, clusters, order=None):
        """Check every yielded item and the restored ``U``; return the visit
        order and the rows moved before the restore.  ``order`` replaces
        ``_gather_order``'s visit order."""
        n, U0 = len(U), U.copy()
        moved, move_rows = [], metric._move_rows

        def counting_move(flat, d, src, dst, count):
            moved.append(count)
            move_rows(flat, d, src, dst, count)

        seen, prev, total = [], np.array([], dtype=int), 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "_move_rows", counting_move)
            if order is not None:
                mp.setattr(metric, "_gather_order", lambda clusters, n: order)
            for i, members, V in metric.outside_gathers(U, clusters):
                expect = np.setdiff1d(np.arange(n), clusters[i])
                assert members.tolist() == sorted(clusters[i].tolist())
                assert V.flags.c_contiguous and V.shape == (len(expect), U.shape[1])
                assert V.ctypes.data == U.ctypes.data and (np.shares_memory(V, U) or not V.size)
                assert np.array_equal(V.view(np.int64), U0[expect].view(np.int64))
                assert np.array_equal(U.view(np.int64), U0[cls.layout(n, members)].view(np.int64))
                total += sum(moved)
                cls.check_moves(moved, n, prev, members)
                prev = members
                seen.append(i)
            cls.check_moves(moved, n, prev, np.array([], dtype=int))
        assert sorted(seen) == list(range(len(clusters)))
        assert np.array_equal(U.view(np.int64), U0.view(np.int64))
        return seen, total

    @staticmethod
    def rows(rs, n, d):
        U = rs.normal(size=(n, d))
        U[rs.integers(0, n, 5), 0] = -0.0  # bits, not values, are compared
        return U

    def test_mixed_sizes_in_any_order(self):
        rs = np.random.default_rng(21)
        for n in (2, 3, 17, 60, 211):
            U = self.rows(rs, n, 5)
            cuts = np.sort(rs.choice(np.arange(1, n), size=min(n - 1, n // 3 + 1), replace=False))
            self.walk(U, np.split(rs.permutation(n), cuts))  # member rows not ascending

    def test_member_rows_ascending_by_id_not_row(self):
        # A partition orders each cluster's rows by sample id, so with ids
        # that do not ascend in row order the rows come unsorted.
        rs = np.random.default_rng(27)
        n = 90
        ids = rs.permutation(1000)[:n]
        clusters = [np.array(c) for c in np.split(rs.permutation(n), np.arange(3, n, 3))]
        by_id = [c[np.argsort(ids[c])] for c in clusters]
        assert any((np.diff(c) < 0).any() for c in by_id)
        self.walk(self.rows(rs, n, 4), by_id)

    def test_only_singletons(self):
        U = self.rows(np.random.default_rng(22), 40, 3)
        _, moved = self.walk(U, [np.array([i]) for i in range(40)])
        assert moved < 40 * 39 // 4

    def test_one_cluster_holding_every_row(self):
        U = self.rows(np.random.default_rng(23), 9, 4)
        self.walk(U, [np.arange(9)])

    def test_one_cluster_and_no_cluster(self):
        U = self.rows(np.random.default_rng(28), 12, 3)
        _, moved = self.walk(U, [np.array([7, 2])])
        assert moved == 8  # rows 3..6 one place down, rows 8..11 two
        U0 = U.copy()
        assert list(metric.outside_gathers(U, [])) == []
        assert np.array_equal(U, U0)

    def test_clusters_at_both_ends_and_size_changes(self):
        rs = np.random.default_rng(24)
        n = 50
        U = self.rows(rs, n, 7)
        clusters = [np.array([0, 1]), np.array([n - 2, n - 1]), np.array([0, n - 1]),
                    np.array([0, 10, 20]), np.array([5, 30, n - 1]), np.array([n - 1]),
                    np.array([0]), np.array([0, 1, 2, 3, n - 1]), np.array([24, 25])]
        for _ in range(5):
            self.walk(U, [clusters[i] for i in rs.permutation(len(clusters))])

    def test_sizes_up_then_down(self):
        # ``_gather_order`` visits sizes ascending; any order must still give
        # every view, as a size change moves the parked rows' place too.
        rs = np.random.default_rng(29)
        n = 40
        U = self.rows(rs, n, 3)
        clusters = [np.array([30, 31]), np.array([5, 6, 7]), np.array([0, 20, 39, 10]),
                    np.array([1, 2, 3]), np.array([38, 39]), np.array([4]), np.array([0, 39])]
        self.walk(U, clusters, order=list(range(len(clusters))))
        self.walk(U, clusters, order=list(range(len(clusters)))[::-1])

    def test_adjacent_members_share_a_step(self):
        # Adjacent rows give equal steps: the view skips both in one place.
        n = 30
        U = self.rows(np.random.default_rng(30), n, 3)
        clusters = [np.array([4, 5, 6]), np.array([5, 6, 7]), np.array([0, 1, 2]),
                    np.array([27, 28, 29]), np.array([10, 11, 20]), np.array([11, 20, 21])]
        self.walk(U, clusters)

    def test_grouped_by_size_and_few_rows_copied(self):
        # Neighbouring pairs: each next cluster's outside differs from the
        # last one's in a few positions, so almost nothing moves again.
        n = 200
        U = self.rows(np.random.default_rng(25), n, 3)
        clusters = [np.array([i, i + 1]) for i in range(0, 100, 2)]
        clusters += [np.array([i, i + 1, i + 2]) for i in range(100, n - 2, 3)]
        order, moved = self.walk(U, clusters)
        assert [len(clusters[i]) for i in order] == sorted(len(c) for c in clusters)
        assert moved < 0.05 * sum(n - len(c) for c in clusters)

    def test_gathered_rows_must_be_the_requested_rows(self):
        # one_to_many multiplies the rows it is given as they are, so it
        # refuses unit rows of another width, and any but a C-contiguous matrix.
        rs = np.random.default_rng(26)
        M = rs.normal(size=(10, 4))
        U = unit_rows(M)
        rows = np.array([1, 4, 7])
        for bad in (U[rows][:, :3], np.asfortranarray(U[[1, 4, 7, 8]])[:3], U[1], U[::2]):
            with pytest.raises(InvalidArgumentError, match="unit rows"):
                one_to_many(M[0], bad, [])

    def test_put_back_when_stopped_early_or_on_an_error(self):
        rs = np.random.default_rng(32)
        U = self.rows(rs, 50, 4)
        U0 = U.copy()
        clusters = [np.array([3, 9]), np.array([40, 1, 20]), np.array([0, 49]), np.array([7])]
        for stop in ("close", "throw"):
            walk = metric.outside_gathers(U, clusters)
            next(walk), next(walk)
            assert not np.array_equal(U, U0)
            if stop == "close":
                walk.close()
            else:
                with pytest.raises(ZeroDivisionError):
                    walk.throw(ZeroDivisionError)
            assert np.array_equal(U.view(np.int64), U0.view(np.int64))
