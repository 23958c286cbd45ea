from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import cluster_dissimilarity, condensed_index, pairwise_full_block
from conftest import NO_DIRECTION, random_unit_rows, with_duplicates
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
                one_to_many(np.array(row), unit_rows(M), M, [0, 1])

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
        # one rule for the pairwise matrix, the scalar kernel and one_to_many.
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
        U = unit_rows(X)
        for p in range(200):
            i = 2 * p
            assert X[i].tobytes() != X[i + 1].tobytes()
            assert cond[condensed_index(400, i, i + 1)] == 0.0
            assert cosine_dissimilarity(X[i], X[i + 1]) == 0.0
            assert one_to_many(X[i], U[[i + 1]], X, [i + 1])[0] == 0.0
        # The twins merge first, at height 0.0.
        dendro, part = agglomerate_fast(X[:80], 40)
        assert [s.height for s in dendro.steps] == [0.0] * 40
        assert sorted(map(sorted, part.clusters)) == [[i, i + 1] for i in range(0, 80, 2)]

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
        M[3] = x  # an exact duplicate is exactly zero
        M[5, 0] = x[0]  # equal in column 0 only: not a duplicate
        M[7] = x
        M[7, 0] = -0.0  # equal to x under ==, so also exactly zero
        U = unit_rows(M)
        d = one_to_many(x, U, M, np.arange(25))
        assert d[3] == 0.0 and d[7] == 0.0
        assert d[5] > 0.0
        for i in range(25):
            assert d[i] == pytest.approx(cosine_dissimilarity(x, M[i]), abs=1e-12)
        # Arbitrary row order: results follow ``rows`` and equal the kernel
        # on the already gathered raw rows bit for bit.
        rows = np.array([7, 20, 3, 5, 0, 19, 11])
        got = one_to_many(x, U[rows], M, rows)
        assert got.tolist() == one_to_many(x, U[rows], M[rows], np.arange(7)).tolist()
        assert got[0] == 0.0 and got[2] == 0.0 and got[3] > 0.0
        for j, i in enumerate(rows):
            assert got[j] == pytest.approx(d[i], abs=1e-12)
        with pytest.raises(InvalidArgumentError):
            one_to_many(x, unit_rows(M[:, 1:]), M, np.arange(25))


class TestOutsideGathers:
    """Every view ``outside_gathers`` yields holds ``U[outside]`` bit for bit."""

    @staticmethod
    def walk(U, clusters):
        """Check every yielded item; return the visit order and the rows copied."""
        n = len(U)
        copied = []
        take = np.take

        def counting_take(a, idx, *args, **kwargs):
            copied.append(len(idx))
            return take(a, idx, *args, **kwargs)

        seen, addresses = [], set()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric.np, "take", counting_take)
            for i, outside, V in metric.outside_gathers(U, clusters):
                expect = np.setdiff1d(np.arange(n), clusters[i])
                assert outside.tolist() == expect.tolist()
                assert V.flags.c_contiguous and V.shape == (len(expect), U.shape[1])
                assert np.array_equal(V.view(np.int64), U[expect].view(np.int64))
                seen.append(i)
                addresses.add(V.__array_interface__["data"][0])
        assert sorted(seen) == list(range(len(clusters)))
        assert len(addresses) <= 1  # one buffer for the class
        return seen, sum(copied)

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
            clusters = [np.sort(c) for c in np.split(rs.permutation(n), cuts)]
            self.walk(U, clusters)

    def test_only_singletons(self):
        U = self.rows(np.random.default_rng(22), 40, 3)
        _, copied = self.walk(U, [np.array([i]) for i in range(40)])
        assert copied < 40 * 39 // 4

    def test_one_cluster_holding_every_row(self):
        U = self.rows(np.random.default_rng(23), 9, 4)
        self.walk(U, [np.arange(9)])

    def test_clusters_at_both_ends_and_size_changes(self):
        rs = np.random.default_rng(24)
        n = 50
        U = self.rows(rs, n, 7)
        clusters = [np.array([0, 1]), np.array([n - 2, n - 1]), np.array([0, n - 1]),
                    np.array([0, 10, 20]), np.array([5, 30, n - 1]), np.array([n - 1]),
                    np.array([0]), np.array([0, 1, 2, 3, n - 1]), np.array([24, 25])]
        for _ in range(5):
            self.walk(U, [clusters[i] for i in rs.permutation(len(clusters))])

    def test_grouped_by_size_and_few_rows_copied(self):
        # Neighbouring pairs: each next cluster's outside differs from the
        # last one's in a few positions, so almost nothing is copied again.
        n = 200
        U = self.rows(np.random.default_rng(25), n, 3)
        clusters = [np.array([i, i + 1]) for i in range(0, 100, 2)]
        clusters += [np.array([i, i + 1, i + 2]) for i in range(100, n - 2, 3)]
        order, copied = self.walk(U, clusters)
        assert [len(clusters[i]) for i in order] == sorted(len(c) for c in clusters)
        assert copied < 0.05 * sum(n - len(c) for c in clusters)

    def test_gathered_rows_must_be_the_requested_rows(self):
        rs = np.random.default_rng(26)
        M = rs.normal(size=(10, 4))
        U = unit_rows(M)
        rows = np.array([1, 4, 7])
        for bad in (U[:2], U[rows][:, :3], np.asfortranarray(U[[1, 4, 7, 8]])[:3]):
            with pytest.raises(InvalidArgumentError, match="unit rows"):
                one_to_many(M[0], bad, M, rows)
        with pytest.raises(InvalidArgumentError, match="unit rows"):
            one_to_many(M[0], U[rows], M[:, :3], rows)  # raw rows of another width
