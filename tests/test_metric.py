from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import cluster_dissimilarity, condensed_index
from redunda.errors import InvalidArgumentError
from redunda.metric import (
    condensed_offsets,
    cosine_dissimilarity,
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

    def test_duplicate_rows_give_exact_zero(self):
        X = np.array([[0.3, -0.7, 1.1]] * 4)
        assert pairwise_condensed(X).max() == 0.0

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
        d = one_to_many(x, M, U, np.arange(25))
        assert d[3] == 0.0 and d[7] == 0.0
        assert d[5] > 0.0
        for i in range(25):
            assert d[i] == pytest.approx(cosine_dissimilarity(x, M[i]), abs=1e-12)
        # Arbitrary row order: results follow ``rows`` and equal the kernel
        # on the already gathered rows bit for bit.
        rows = np.array([7, 20, 3, 5, 0, 19, 11])
        got = one_to_many(x, M, U, rows)
        assert got.tolist() == one_to_many(x, M[rows], U[rows], np.arange(7)).tolist()
        assert got[0] == 0.0 and got[2] == 0.0 and got[3] > 0.0
        for j, i in enumerate(rows):
            assert got[j] == pytest.approx(d[i], abs=1e-12)
        with pytest.raises(InvalidArgumentError):
            one_to_many(x, M, unit_rows(M[1:]), np.arange(24))
