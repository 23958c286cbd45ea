from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import agglomerate_naive
from conftest import random_unit_rows, with_duplicates
from redunda.cluster import (
    Dendrogram,
    MergeStep,
    agglomerate_fast,
    cut_dendrogram,
    format_dendrogram,
)
from redunda.errors import InvalidArgumentError, MemoryCapError
from redunda.metric import cosine_dissimilarity, pairwise_condensed

# First merge of {(1,0), (1,0.001), (0,1)}: d((1,0),(1,0.001)), frozen oracle value.
FIRST_MERGE_HEIGHT = 4.999996250365513e-07


def as_points(X):
    return [(i, X[i]) for i in range(len(X))]


THREE = np.array([[1.0, 0.0], [1.0, 0.001], [0.0, 1.0]])


class TestWorkedExamples:
    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_three_points_k2(self, engine):
        dendro, part = engine(THREE, 2)
        assert {frozenset(c) for c in part.clusters} == {
            frozenset({0, 1}),
            frozenset({2}),
        }
        assert len(dendro.steps) == 1
        assert dendro.steps[0].height == pytest.approx(FIRST_MERGE_HEIGHT, abs=1e-18)

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_k_equals_n_no_merges(self, engine):
        dendro, part = engine(THREE, 3)
        assert dendro.steps == ()
        assert part.sizes() == [1, 1, 1]

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_k1_full_agglomeration(self, engine):
        dendro, part = engine(THREE, 1)
        assert len(dendro.steps) == 2
        assert part.clusters == (frozenset({0, 1, 2}),)

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_single_point(self, engine):
        dendro, part = engine(np.array([[1.0, 2.0]]), 1, sample_ids=[5])
        assert part.clusters == (frozenset({5}),)
        with pytest.raises(InvalidArgumentError):
            engine(np.array([[1.0, 2.0]]), 2, sample_ids=[5])

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_k_out_of_range(self, engine):
        for k in (0, -1, 4):
            with pytest.raises(InvalidArgumentError):
                engine(THREE, k)

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_duplicate_ids_rejected(self, engine):
        with pytest.raises(InvalidArgumentError):
            engine(np.array([[1.0, 0.0], [0.0, 1.0]]), 1, sample_ids=[0, 0])

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_no_points_rejected(self, engine):
        with pytest.raises(InvalidArgumentError):
            engine(np.zeros((0, 2)), 1)

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_duplicates_merge_first_at_height_zero(self, engine):
        X = np.array([[0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        dendro, part = engine(X, 3)
        assert dendro.steps[0].height == 0.0
        assert frozenset({0, 2}) in part.clusters


class TestEngineEquivalence:
    def test_random_inputs_with_ties(self):
        rs = np.random.default_rng(42)
        for trial in range(40):
            n = int(rs.integers(5, 70))
            dim = int(rs.choice([2, 8, 64]))
            X = random_unit_rows(rs, n, dim)
            if trial % 2:
                X = with_duplicates(rs, X, n // 3)
            k = int(rs.integers(1, n + 1))
            dn, pn = agglomerate_naive(X, k)
            df, pf = agglomerate_fast(X, k)
            assert pn == pf
            assert dn == df  # canonicalized dendrograms match step-for-step

    def test_small_inputs_vs_pure_python_oracle(self):
        rs = np.random.default_rng(1)
        for trial in range(25):
            n = int(rs.integers(3, 12))
            X = random_unit_rows(rs, n, 3)
            if trial % 2:
                X = with_duplicates(rs, X, 2)
            k = int(rs.integers(1, n + 1))
            expect = _oracles.complete_linkage(as_points(X), k)
            _, pn = agglomerate_naive(X, k)
            _, pf = agglomerate_fast(X, k)
            assert set(pn.clusters) == expect
            assert set(pf.clusters) == expect

    def test_all_identical_points(self):
        X = np.tile([0.6, -0.8], (12, 1))
        for k in (1, 3, 12):
            dn, pn = agglomerate_naive(X, k)
            df, pf = agglomerate_fast(X, k)
            assert pn == pf and dn == df
            assert len(pn.clusters) == k
        # ties resolve by ordinal: k=11 merges the two smallest ordinals
        _, p = agglomerate_fast(X, 11)
        assert frozenset({0, 1}) in p.clusters

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equivalence_on_tie_heavy_grids(self, data):
        # coordinates from a tiny grid make exact ties overwhelmingly likely
        n = data.draw(st.integers(3, 14), label="n")
        coords = st.sampled_from([-1.0, -0.5, 0.5, 1.0, 2.0])
        rows = data.draw(
            st.lists(st.tuples(coords, coords), min_size=n, max_size=n), label="rows"
        )
        k = data.draw(st.integers(1, n), label="k")
        X = np.array(rows)
        dn, pn = agglomerate_naive(X, k)
        df, pf = agglomerate_fast(X, k)
        assert pn == pf
        assert dn == df
        assert sum(len(c) for c in pn.clusters) == n

    @given(st.data())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_every_cut_on_3d_grids(self, data):
        # Many merges over many exact ties: heap entries go stale both
        # because their partner died and because the pair's height grew.
        n = data.draw(st.integers(2, 60), label="n")
        coords = st.sampled_from([-1.0, 0.5, 1.0, 2.0])
        rows = data.draw(
            st.lists(st.tuples(coords, coords, coords), min_size=n, max_size=n),
            label="rows",
        )
        X = np.array(rows)
        for k in range(1, n + 1):
            dn, pn = agglomerate_naive(X, k)
            df, pf = agglomerate_fast(X, k)
            assert pn == pf
            assert dn == df

    def test_entry_whose_partner_grew_at_equal_height_stays_valid(self):
        # d(0,1) == d(0,2) exactly (same dot with x, same norms), and 1, 2
        # are closer to each other, so slot 0's entry (d01, 0, 1) is pushed,
        # then 2 merges into 1 and the max update leaves D[0, 1] at d01:
        # the entry is popped as the next valid merge.
        X = np.array([[0.0, 0.0, 1.0], [3.0, 1.0, 1.0], [1.0, 3.0, 1.0], [-1.0, 0.0, 0.0]])
        d01 = cosine_dissimilarity(X[0], X[1])
        assert pairwise_condensed(X)[0] == pairwise_condensed(X)[1]
        for k in range(1, 5):
            dn, pn = agglomerate_naive(X, k)
            df, pf = agglomerate_fast(X, k)
            assert pn == pf
            assert dn == df
        steps = agglomerate_fast(X, 2)[0].steps
        assert [(s.left, s.right) for s in steps] == [(1, 2), (0, 4)]
        assert steps[1].height == pytest.approx(d01, abs=1e-15)

    def test_moderate_class_self_consistency(self):
        rs = np.random.default_rng(3)
        X = random_unit_rows(rs, 800, 16)
        dendro, part = agglomerate_fast(X, 640)
        assert len(part.clusters) == 640
        assert sum(len(c) for c in part.clusters) == 800
        assert set().union(*part.clusters) == set(range(800))


class TestDendrogram:
    def full(self, n=40, seed=0, dim=4) -> tuple[Dendrogram, np.ndarray]:
        rs = np.random.default_rng(seed)
        X = with_duplicates(rs, random_unit_rows(rs, n, dim), 5)
        dendro, _ = agglomerate_fast(X, 1)
        return dendro, X

    def test_heights_non_decreasing(self):
        dendro, _ = self.full()
        heights = [s.height for s in dendro.steps]
        assert heights == sorted(heights)
        assert all(h >= 0.0 for h in heights)

    def test_forest_validity(self):
        dendro, _ = self.full()
        n = dendro.n_points
        used = []
        for i, step in enumerate(dendro.steps):
            assert step.new_id == n + i  # creation order numbering
            assert step.left < step.right < step.new_id
            used += [step.left, step.right]
        assert len(used) == len(set(used))  # each ref consumed at most once

    def test_cut_every_k(self):
        dendro, X = self.full(n=60)
        n = len(X)
        for k in range(1, n + 1):
            part = cut_dendrogram(dendro, k)
            assert len(part.clusters) == k
            assert sum(len(c) for c in part.clusters) == n

    def test_cut_reproduces_clustering_partition(self):
        rs = np.random.default_rng(8)
        X = with_duplicates(rs, random_unit_rows(rs, 50, 8), 8)
        for k in (1, 7, 25, 50):
            dendro, part = agglomerate_fast(X, k)
            assert cut_dendrogram(dendro, k) == part
            assert len(dendro.steps) == 50 - k  # stopped dendrogram, not full

    def test_cut_range_checked(self):
        dendro, _ = agglomerate_fast(THREE, 2)  # one step recorded
        assert len(cut_dendrogram(dendro, 3).clusters) == 3
        with pytest.raises(InvalidArgumentError):
            cut_dendrogram(dendro, 1)  # below achievable range
        with pytest.raises(InvalidArgumentError):
            cut_dendrogram(dendro, 4)

    def test_cuts_nest(self):
        dendro, _ = self.full(n=30)
        prev = cut_dendrogram(dendro, 30)
        for k in range(29, 0, -1):
            cur = cut_dendrogram(dendro, k)
            for cluster in prev.clusters:
                assert any(cluster <= c for c in cur.clusters)
            prev = cur

    def test_sample_ids_preserved(self):
        dendro, part = agglomerate_fast(THREE, 2, sample_ids=[100, 7, 55])
        assert dendro.sample_ids == (100, 7, 55)
        assert {frozenset(c) for c in part.clusters} == {
            frozenset({100, 7}),
            frozenset({55}),
        }

    def test_dump_format(self):
        dendro, _ = self.full(n=10)
        text = format_dendrogram(dendro)
        lines = text.splitlines()
        assert len(lines) == len(dendro.steps)
        for line, step in zip(lines, dendro.steps):
            left, right, height, new_id = line.split()
            assert (int(left), int(right), int(new_id)) == (
                step.left,
                step.right,
                step.new_id,
            )
            assert float(height) == step.height  # 17 significant digits round-trip

    def test_empty_dump(self):
        dendro, _ = agglomerate_fast(THREE, 3)
        assert format_dendrogram(dendro) == ""


class TestDeterminism:
    def test_permutation_robustness_generic_input(self):
        rs = np.random.default_rng(17)
        X = random_unit_rows(rs, 40, 8)  # real vectors: distinct dissimilarities
        _, base = agglomerate_fast(X, 12)
        for _ in range(5):
            perm = rs.permutation(40)
            _, part = agglomerate_fast(X[perm], 12, sample_ids=perm)
            assert set(part.clusters) == set(base.clusters)

    def test_reruns_bit_identical(self):
        rs = np.random.default_rng(23)
        X = with_duplicates(rs, random_unit_rows(rs, 60, 4), 20)
        a = agglomerate_fast(X, 15)
        b = agglomerate_fast(X, 15)
        assert a == b


class TestMemoryCap:
    def test_cap_exceeded_reports_bytes(self):
        n = 100
        need = n * (n - 1) // 2 * 8
        with pytest.raises(MemoryCapError, match=str(need)):
            agglomerate_fast(
                np.random.default_rng(0).normal(size=(n, 3)),
                5,
                memory_cap_bytes=need - 1,
            )

    def test_cap_boundary_allows_exact_fit(self):
        n = 50
        need = n * (n - 1) // 2 * 8
        X = np.random.default_rng(0).normal(size=(n, 3))
        _, part = agglomerate_fast(X, 5, memory_cap_bytes=need)
        assert len(part.clusters) == 5
