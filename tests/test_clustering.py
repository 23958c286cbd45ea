from __future__ import annotations

import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import agglomerate_naive
from conftest import NO_DIRECTION, clusters, random_unit_rows, with_duplicates
from redunda import cluster, metric
from redunda.cluster import (
    Dendrogram,
    Partition,
    agglomerate_fast,
    cut_dendrogram,
    format_dendrogram,
)
from redunda.errors import InvalidArgumentError, MemoryCapError
from redunda.metric import cosine_dissimilarity, pairwise_condensed
from redunda.selection import build_cluster_subset
from redunda.store import EmbeddingDataset
from redunda.synth import PlantedSpec, generate

# First merge of {(1,0), (1,0.001), (0,1)}: d((1,0),(1,0.001)), frozen oracle value.
FIRST_MERGE_HEIGHT = 4.999996250365513e-07


def as_points(X):
    return [(i, X[i]) for i in range(len(X))]


THREE = np.array([[1.0, 0.0], [1.0, 0.001], [0.0, 1.0]])


class TestWorkedExamples:
    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_three_points_k2(self, engine):
        dendro, part = engine(THREE, 2)
        assert {frozenset(c) for c in clusters(part)} == {
            frozenset({0, 1}),
            frozenset({2}),
        }
        (step,) = _oracles.steps(dendro)
        assert step.height == pytest.approx(FIRST_MERGE_HEIGHT, abs=1e-18)

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_k_equals_n_no_merges(self, engine):
        dendro, part = engine(THREE, 3)
        assert _oracles.steps(dendro) == ()
        assert part.sizes().tolist() == [1, 1, 1]

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_k1_full_agglomeration(self, engine):
        dendro, part = engine(THREE, 1)
        assert len(_oracles.steps(dendro)) == 2
        assert clusters(part) == (frozenset({0, 1, 2}),)

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_single_point(self, engine):
        dendro, part = engine(np.array([[1.0, 2.0]]), 1, sample_ids=[5])
        assert clusters(part) == (frozenset({5}),)
        with pytest.raises(InvalidArgumentError):
            engine(np.array([[1.0, 2.0]]), 2, sample_ids=[5])

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_k_out_of_range(self, engine):
        for k in (0, -1, 4):
            with pytest.raises(InvalidArgumentError):
                engine(THREE, k)

    def test_k_must_be_an_integer(self):
        dendro, part = agglomerate_fast(THREE, np.int64(2))
        assert cut_dendrogram(dendro, np.int32(2)) == part
        for k in (2.5, 2.0):
            with pytest.raises(InvalidArgumentError, match=r"^k must be an integer in .*\[1, 3\]"):
                agglomerate_fast(THREE, k)
            with pytest.raises(InvalidArgumentError, match=r"^k must be an integer in .*\[2, 3\]"):
                cut_dendrogram(dendro, k)

    def test_ids_are_integers_int64_holds(self):
        # A fraction is refused, not truncated to the id below it.
        with pytest.raises(InvalidArgumentError, match=r"^sample_ids\[0\] is not an integer$"):
            agglomerate_fast(THREE, 2, sample_ids=[0.5, 1.5, 2.5])
        with pytest.raises(InvalidArgumentError, match=r"^sample_ids\[0\] is not an integer$"):
            Partition.from_groups([0.5, 1.0], [[1.0]])
        with pytest.raises(InvalidArgumentError, match=r"^sample_ids\[2\] exceeds supported range$"):
            agglomerate_fast(THREE, 2, sample_ids=[0, 1, 2**63])
        # An id that is no real number is refused by the same rule, not by
        # whatever its first comparison raises.
        for ids, at in [(["3", "4", "5"], 0), ([0, "a", 2], 1), ([0, 1, None], 2), ([1 + 0j, 1, 2], 0)]:
            with pytest.raises(InvalidArgumentError, match=rf"^sample_ids\[{at}\] is not an integer$"):
                agglomerate_fast(THREE, 2, sample_ids=ids)
            with pytest.raises(InvalidArgumentError, match=rf"^sample_ids\[{at}\] is not an integer$"):
                Partition.from_groups(ids, [])
        # A boolean is taken at its value.
        assert Partition.from_groups(np.array([True, False]), [[0], [1]]).order.tolist() == [1, 0]
        _, part = agglomerate_fast(THREE[:2], 1, sample_ids=[False, True])
        assert part.sample_ids.tolist() == [0, 1]
        _, part = agglomerate_fast(THREE, 2, sample_ids=np.array([4.0, 2.0, 9.0]))
        assert part.sample_ids.tolist() == [4, 2, 9] and part.sample_ids.dtype == np.int64

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_duplicate_ids_rejected(self, engine):
        with pytest.raises(InvalidArgumentError):
            engine(np.array([[1.0, 0.0], [0.0, 1.0]]), 1, sample_ids=[0, 0])

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_no_points_rejected(self, engine):
        with pytest.raises(InvalidArgumentError):
            engine(np.zeros((0, 2)), 1)

    def test_non_finite_row_rejected(self):
        X = np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0]])
        with pytest.raises(InvalidArgumentError, match="non-finite vector component"):
            agglomerate_fast(X, 2)
        # Every row without a direction, whichever k, with the caller's U or
        # without, in float64 and in the float32 a binary file holds: the rule
        # reads X, not U.
        U = metric.unit_rows(THREE)
        for row, reason in NO_DIRECTION:
            X = np.array([[1.0, 0.0], row, [0.0, 1.0]])
            with np.errstate(over="ignore"):  # [1e200, 1e200] is [inf, inf] in float32
                X32 = X.astype(np.float32)
            reason32 = reason if np.isfinite(X32).all() else "non-finite vector component"
            for rows, why in [(X, reason), (X32, reason32)]:
                for k, given in [(2, None), (3, None), (2, U), (3, U)]:
                    with pytest.raises(InvalidArgumentError, match=f"^row 1: {why}$"):
                        agglomerate_fast(rows, k, U=given)

    def test_member_rows_of_an_empty_class(self):
        with pytest.raises(InvalidArgumentError, match="outside the class"):
            Partition.from_groups(np.empty(0, dtype=np.int64), [{3}])
        part = Partition.from_groups(np.array([3]), [{3}])
        assert (part.order.tolist(), part.starts.tolist()) == ([0], [0, 1])

    def test_overlapping_groups_rejected(self):
        with pytest.raises(InvalidArgumentError, match="twice"):
            Partition.from_groups(np.arange(4), [frozenset({0, 1}), frozenset({1, 2})])

    @pytest.mark.parametrize("engine", [agglomerate_naive, agglomerate_fast])
    def test_duplicates_merge_first_at_height_zero(self, engine):
        X = np.array([[0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        dendro, part = engine(X, 3)
        assert _oracles.steps(dendro)[0].height == 0.0
        assert frozenset({0, 2}) in clusters(part)


def assert_replayed(dendro, k, part):
    """``part`` is the cut at ``k`` of the reference replay of the merges:
    its clusters in its order, each cluster's rows ascending by sample id and
    every row in one cluster."""
    steps = _oracles.steps(dendro)
    assert clusters(part) == _oracles.replay_cut(steps, dendro.sample_ids, k)
    assert sorted(part.order.tolist()) == list(range(len(dendro.sample_ids)))
    ids = part.sample_ids[part.order]
    assert all((np.diff(ids[a:b]) > 0).all() for a, b in zip(part.starts, part.starts[1:]))


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
            assert dn == df  # the raw merges match merge for merge
            assert_replayed(df, k, pf)

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
            assert set(clusters(pn)) == expect
            assert set(clusters(pf)) == expect

    def test_all_identical_points(self):
        X = np.tile([0.6, -0.8], (12, 1))
        for k in (1, 3, 12):
            dn, pn = agglomerate_naive(X, k)
            df, pf = agglomerate_fast(X, k)
            assert pn == pf and dn == df
            assert len(clusters(pn)) == k
        # ties resolve by ordinal: k=11 merges the two smallest ordinals
        _, p = agglomerate_fast(X, 11)
        assert frozenset({0, 1}) in clusters(p)

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
        assert sum(len(c) for c in clusters(pn)) == n
        full, _ = agglomerate_fast(X, 1)
        for cut in range(1, n + 1):
            assert_replayed(full, cut, cut_dendrogram(full, cut))

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
            assert_replayed(df, k, pf)

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
        steps = _oracles.steps(agglomerate_fast(X, 2)[0])
        assert [(s.left, s.right) for s in steps] == [(1, 2), (0, 4)]
        assert steps[1].height == pytest.approx(d01, abs=1e-15)

    def test_moderate_class_self_consistency(self):
        rs = np.random.default_rng(3)
        X = random_unit_rows(rs, 800, 16)
        dendro, part = agglomerate_fast(X, 640)
        assert len(clusters(part)) == 640
        assert sum(len(c) for c in clusters(part)) == 800
        assert set().union(*clusters(part)) == set(range(800))


def assert_exact_read(D, bound, idx, values):
    """The read holds exactly the cells of ``D`` at or below its bound, in
    ascending ``(value, index)`` order, with the bits ``D`` holds."""
    below = np.flatnonzero(D <= bound)
    assert idx.tolist() == below[np.lexsort((below, D[below]))].tolist()
    assert values.tobytes() == D[idx].tobytes()


def both_engines(X, k):
    """Raw merges of the threshold engine and of the dense loop, heights as
    hex so equality is bit for bit, and the bound of the threshold engine's
    read; its merges are None when it gave up.  The threshold engine runs
    inside ``agglomerate_fast``, which must read the class once; the read
    must hold exactly the cells of ``pairwise_condensed(X)`` at or below its
    bound."""
    n = len(X)
    reads, fast = [], []
    read, threshold = metric.smallest_pairs, cluster._threshold_merges

    def read_spy(*args):
        reads.append(read(*args))
        return reads[-1]

    def threshold_spy(*args):
        fast.append(threshold(*args))
        return fast[-1]

    with mock.patch.object(metric, "smallest_pairs", read_spy), \
            mock.patch.object(cluster, "_threshold_merges", threshold_spy):
        agglomerate_fast(X, k)
    if k == n:  # nothing to merge: no read
        assert reads == fast == []
        return [], [], None
    assert len(reads) == len(fast) == 1
    D = pairwise_condensed(X)
    bound, idx, values = reads[0]
    assert_exact_read(D, bound, idx, values)
    dense = cluster._generic_merges(D, n, n - k)

    def bits(raw):
        return None if raw is None else [(float(h).hex(), a, b) for h, a, b in raw]

    return bits(fast[0]), bits(dense), bound


def start_bound(D, n, room, first, sample_cells):
    """The documented start bound: the value at the budget's rank among a
    strided sample of the cells of the first gram block, of ``first`` rows
    (``+inf`` past its end)."""
    cells = first * n - first * (first + 1) // 2
    sample = np.sort(D[: cells : max(1, cells // sample_cells)])
    rank = room * len(sample) // len(D)
    return sample[rank] if rank < len(sample) else np.inf


_GRID = st.sampled_from([-1.0, -0.5, 0.5, 1.0, 2.0])


def streamed(n, merges, cells, heights, chunk):
    """The threshold engine's merges from the read ``cells, heights`` with
    chunks of ``chunk`` cells, heights as hex, and the number of chunks it
    converted (one ``searchsorted`` each)."""
    with mock.patch.object(cluster, "_CHUNK_CELLS", chunk), \
            mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as convert:
        raw = cluster._threshold_merges(n, merges, cells, heights)
    return None if raw is None else [(h.hex(), a, b) for h, a, b in raw], convert.call_count


class TestThresholdEngine:
    # Chunks of 1, 2 and 3 cells put chunk edges between the cells of equal
    # value and between a cell and the heap entries below it.
    def test_planted_groups_with_wide_margin(self):
        sizes = tuple(1 + i % 16 for i in range(48))
        spec = PlantedSpec(classes=2, groups_per_class=48, dim=32, within_spread=0.02,
                           between_margin=0.5, seed=4, sizes=sizes)
        ds, truth, _ = generate(spec)
        for (cid, groups), chunk in itertools.product(truth.items(), [1, 2, 3, 4096]):
            ids, X = ds.class_arrays(cid)
            with mock.patch.object(cluster, "_CHUNK_CELLS", chunk):
                fast, dense, _ = both_engines(X, len(groups))
                _, part = agglomerate_fast(X, len(groups), sample_ids=ids)
            assert fast is not None
            assert fast == dense
            assert set(clusters(part)) == set(groups)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_tie_heavy_grids_across_batch_bounds(self, data):
        # A coarse sample puts the start bound on values many pairs share, so
        # equal heights sit on both sides of the bound and at the heap top.
        n = data.draw(st.integers(3, 30), label="n")
        rows = data.draw(
            st.lists(st.tuples(_GRID, _GRID, _GRID), min_size=n, max_size=n), label="rows"
        )
        k = data.draw(st.integers(1, n), label="k")
        cells = data.draw(st.sampled_from([1, 2, 7, 1 << 16]), label="sample cells")
        chunk = data.draw(st.sampled_from([1, 2, 3, 4096]), label="chunk cells")
        with mock.patch.object(metric, "_SAMPLE_CELLS", cells), \
                mock.patch.object(cluster, "_CHUNK_CELLS", chunk):
            fast, dense, _ = both_engines(np.array(rows), k)
        assert fast is None or fast == dense

    def test_ties_on_a_batch_bound(self):
        # A two-cell sample puts the one bound, below the budget, on a height
        # that three of the merges taken share.
        X = np.random.default_rng(4).choice([-1.0, 0.5, 1.0, 2.0], size=(30, 3))
        for chunk in [1, 2, 3, 4096]:
            with mock.patch.object(metric, "_SAMPLE_CELLS", 2), \
                    mock.patch.object(cluster, "_CHUNK_CELLS", chunk):
                fast, dense, bound = both_engines(X, 9)
            heights = [float.fromhex(h) for h, _, _ in dense]
            assert fast == dense
            assert np.count_nonzero(pairwise_condensed(X) <= bound) < 8 * 30
            assert heights.count(bound) > 1

    @pytest.mark.parametrize("chunk", range(1, 11))
    def test_cut_reached_mid_chunk_converts_no_later_chunk(self, chunk):
        # The loop reads every cell up to the last merge's height, and the
        # first cell above it, at index m, tells it that merge is next.  It
        # converts the chunk that holds cell m (mid-chunk for most sizes) and
        # no chunk after it.
        X = random_unit_rows(np.random.default_rng(5), 60, 4)
        _, cells, heights = metric.smallest_pairs(X, metric.unit_rows(X), 8 * 60)
        dense = cluster._generic_merges(pairwise_condensed(X), 60, 20)
        m = np.count_nonzero(heights <= dense[-1][0])
        assert 20 < m < len(cells) - 10
        fast, chunks = streamed(60, 20, cells, heights, chunk)
        assert fast == [(h.hex(), a, b) for h, a, b in dense]
        assert chunks == m // chunk + 1

    def test_give_up_just_as_the_last_chunk_ends(self):
        # Fraction 0.1 needs a cell above the bound: the loop takes what the
        # heap holds after the last cell of its last chunk, then gives up.
        X = random_unit_rows(np.random.default_rng(5), 60, 4)
        _, cells, heights = metric.smallest_pairs(X, metric.unit_rows(X), 8 * 60)
        for chunk in [1, 2, 3, 4, 5, 6, len(cells) // 2, len(cells)]:
            if len(cells) % chunk == 0:
                assert streamed(60, 54, cells, heights, chunk) == (None, len(cells) // chunk)

    def test_merge_loop_converts_only_the_chunks_the_cut_reads(self):
        # A CIFAR-10 class at fraction 0.9 reads 631 of its 40,000 held cells.
        # Traced peak inside the loop: 1.19 MiB measured, the bookkeeping of
        # 5000 slots plus one chunk of 4,096 cells; converting every held cell
        # up front, as before the chunks, peaked at 5.2 MiB.
        X = random_unit_rows(np.random.default_rng(3), 5000, 64)
        _, cells, heights = metric.smallest_pairs(X, metric.unit_rows(X), 8 * 5000)
        tracemalloc.start()
        try:
            raw = cluster._threshold_merges(5000, 500, cells, heights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(raw) == 500 and np.count_nonzero(heights <= raw[-1][0]) == 631
        assert peak <= 2 << 20

    def test_read_keeps_its_temporaries_small(self):
        # An ImageNet class (1300 x 2048) at room 8n.  Traced peak: 1.60 MiB
        # measured, one sample chunk of 2**16 cells with its gathered values,
        # plus the held cells; the whole 70,000-cell sample at once and one
        # mask over the panel peaked at 2.9 MiB.  The panel lives in a mapping
        # tracemalloc does not see.
        X = np.random.default_rng(3).normal(size=(1300, 2048))
        U = metric.unit_rows(X)
        tracemalloc.start()
        try:
            _, idx, _ = metric.smallest_pairs(X, U, 8 * 1300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(idx) == 8 * 1300
        assert peak <= 2.2 * (1 << 20)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_read_takes_every_cell_at_or_below_its_bound(self, data):
        # Grid rows give exact ties and duplicates; unit-normal rows with
        # copied rows give cells above 0.5, where fl(1 - g) rounds, and twins
        # whose gram value is not exactly 1.  Blocks of a few rows put twins
        # on both sides of a block edge.
        n = data.draw(st.integers(2, 40), label="n")
        if data.draw(st.booleans(), label="grid"):
            rows = st.lists(st.tuples(_GRID, _GRID, _GRID), min_size=n, max_size=n)
            X = np.array(data.draw(rows, label="rows"))
        else:
            rs = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
            X = with_duplicates(rs, rs.normal(size=(n, 3)), n // 4)
        total = n * (n - 1) // 2
        room = data.draw(st.integers(1, total), label="room")
        block_rows = data.draw(st.integers(1, n), label="rows per block")
        cells = data.draw(st.sampled_from([1, 2, 7, 1 << 16]), label="sample cells")
        # Chunks of a few cells split the sample and each panel's screen.
        chunk = data.draw(st.sampled_from([1, 2, 7, 1 << 16]), label="chunk elems")
        with mock.patch.object(metric, "_BLOCK_ELEMS", block_rows * n), \
                mock.patch.object(metric, "_SAMPLE_CELLS", cells), \
                mock.patch.object(metric, "_CHUNK_ELEMS", chunk):
            D = pairwise_condensed(X)
            bound, idx, values = metric.smallest_pairs(X, metric.unit_rows(X), room)
            first = metric._panel_rows(n)
        assert_exact_read(D, bound, idx, values)
        assert len(idx) <= room
        start = start_bound(D, n, room, first, cells)
        assert bound <= start
        if np.count_nonzero(D <= start) > room:  # overshoot: the largest bound that fits
            assert np.count_nonzero(D <= np.nextafter(bound, np.inf)) > room
        else:
            assert bound == start

    def test_bound_on_a_cell_whose_one_minus_g_rounded_down(self):
        # The start bound sits on a cell above 0.5 whose fl(1 - g) rounded
        # down, so its gram value lies below 1 - bound: the screen keeps that
        # cell only through its margin.
        X = np.random.default_rng(11).normal(size=(40, 3))
        with mock.patch.object(metric, "_SAMPLE_CELLS", 7):
            fast, dense, bound = both_engines(X, 36)
        assert fast == dense
        (_, _, G), = metric._gram_blocks(metric.unit_rows(X))
        rows, cols = np.triu_indices(40, 1)
        assert np.any((pairwise_condensed(X) == bound) & (G[rows, cols] < 1.0 - bound))

    def test_twins_whose_gram_value_misses_the_screen(self):
        # Twins (0, 1) and (i, i + 20) for i = 2..21, with components over a
        # wide range of magnitudes, so that one twin pair's gram value lies
        # below 1 - 1e-15; blocks of 7 rows split every (i, i + 20).  A
        # one-cell sample takes D[0] = 0.0 as the bound: the screen drops
        # that pair, and the read must add it at 0.0.
        rs = np.random.default_rng(4)
        B = rs.normal(size=(21, 300)) * np.exp(rs.normal(scale=3, size=(21, 300)))
        X = np.vstack([B[:1], B[:1], B[1:], B[1:]])
        twins = {(0, 1)} | {(i, i + 20) for i in range(2, 22)}
        with mock.patch.object(metric, "_BLOCK_ELEMS", 7 * 42), \
                mock.patch.object(metric, "_SAMPLE_CELLS", 1):
            fast, dense, bound = both_engines(X, 21)
            G = np.zeros((42, 42))
            for lo, hi, P in metric._gram_blocks(metric.unit_rows(X)):
                G[lo:hi, lo:] = P
        assert bound == 0.0
        assert fast == dense and {(a, b) for _, a, b in fast} == twins
        assert min(G[i, j] for i, j in twins) < 1.0 - 1e-15

    def test_blocks_with_twins_across_their_edges(self):
        # Blocks of 7 rows; twins of unit-normal rows straddle block edges, and
        # a two-cell sample puts the bound on a value that grid rows share.
        rs = np.random.default_rng(6)
        X = np.vstack([rs.choice([-1.0, 0.5, 1.0, 2.0], size=(24, 3)), rs.normal(size=(21, 3))])
        for i, j in [(27, 28), (30, 41), (24, 44)]:
            X[j] = X[i]
        n = len(X)
        with mock.patch.object(metric, "_BLOCK_ELEMS", 7 * n), \
                mock.patch.object(metric, "_SAMPLE_CELLS", 2):
            fast, dense, bound = both_engines(X, 30)
            D = pairwise_condensed(X)
        assert fast is not None and fast == dense
        assert np.count_nonzero(D == bound) > 1
        twins = [metric.condensed_offsets(n)[i] + j - i - 1 for i, j in [(27, 28), (30, 41), (24, 44)]]
        assert D[twins].tolist() == [0.0, 0.0, 0.0]
        assert {(i, j) for _, i, j in fast} >= {(27, 28), (30, 41), (24, 44)}

    def test_builds_the_condensed_matrix_only_on_a_give_up(self):
        X = random_unit_rows(np.random.default_rng(9), 300, 8)
        for k, builds in [(270, 0), (30, 1)]:  # fractions 0.9 and 0.1
            calls = []

            def spy(X, U=None):
                calls.append(len(X))
                return pairwise_condensed(X, U)

            with mock.patch.object(metric, "pairwise_condensed", spy):
                agglomerate_fast(X, k)
            assert calls == [300] * builds

    def test_read_of_a_cifar_sized_class_maps_one_small_panel(self):
        # A CIFAR-10 class (5000 rows) at fraction 0.9: the read maps one
        # panel buffer of at most 2**19 doubles, not one sized by n, and
        # takes every merge without building the condensed matrix.
        X = random_unit_rows(np.random.default_rng(3), 5000, 64)
        sizes, real_mmap = [], metric.mmap.mmap

        def spy(fileno, length, *args, **kwargs):
            sizes.append(length)
            return real_mmap(fileno, length, *args, **kwargs)

        with mock.patch.object(metric.mmap, "mmap", spy), \
                mock.patch.object(metric, "pairwise_condensed") as dense:
            agglomerate_fast(X, 4500)
        assert len(sizes) == 1 and sizes[0] <= 8 << 19
        dense.assert_not_called()

    @pytest.mark.parametrize("k, builds", [(90, 0), (10, 1)])  # fractions 0.9 and 0.1
    def test_callers_unit_rows_change_nothing(self, k, builds):
        rs = np.random.default_rng(12)
        X = with_duplicates(rs, rs.normal(size=(100, 6)), 25)

        def run(**kw):
            with mock.patch.object(metric, "pairwise_condensed",
                                   wraps=metric.pairwise_condensed) as dense:
                dendro, part = agglomerate_fast(X, k, **kw)
            assert dense.call_count == builds  # which engine took the merges
            return dendro.heights.tobytes(), dendro.pairs.tolist(), part

        assert run(U=metric.unit_rows(X)) == run()
        for U in (metric.unit_rows(X)[1:], metric.unit_rows(X)[:, 1:], metric.unit_rows(X).T):
            with pytest.raises(InvalidArgumentError, match="unit rows"):
                agglomerate_fast(X, k, U=U)
        with pytest.raises(InvalidArgumentError, match="unit rows"):
            agglomerate_fast(X, 100, U=metric.unit_rows(X)[1:])  # no merges, still checked

    def test_gives_up_to_the_dense_loop_on_an_untouched_matrix(self):
        rs = np.random.default_rng(9)
        X = random_unit_rows(rs, 300, 8)
        k = 30  # fraction 0.1: the pairs below the cut are far more than 8 per point
        fresh = pairwise_condensed(X).tobytes()
        fast, _, _ = both_engines(X, k)
        assert fast is None
        handed = []
        dense = cluster._generic_merges

        def spy(D, n, merges):
            handed.append(D.tobytes() == fresh)
            return dense(D, n, merges)

        with mock.patch.object(cluster, "_generic_merges", spy):
            dendro, part = agglomerate_fast(X, k)
        assert handed == [True]
        expect = cluster._generic_merges(pairwise_condensed(X), 300, 300 - k)
        assert _oracles.steps(dendro) == _oracles.canonical_steps(300, expect)
        assert part == cut_dendrogram(dendro, k)

    @pytest.mark.parametrize("n, dim, bound", [
        (5000, 64, 1.709), (1300, 2048, 9.347), (5000, 64, 0.5), (3400, 32, 0.9),
    ])
    def test_peak_allocation_within_the_dense_engine_s(self, n, dim, bound):
        # tracemalloc peak over the condensed matrix the memory cap counts, at
        # fraction 0.9.  1.709 and 9.347 are the dense engine's own ratios
        # (1.7082 and 9.3466) rounded up.  The threshold engine's read never
        # builds that matrix: it holds one gram panel of at most 2**19 cells at
        # a time, 0.04 of the matrix at 5000 rows and 0.09 at 3400, plus the
        # screen's mask and the cells it keeps (0.136 and 0.197 measured).
        # The gram blocks live in a mapping tracemalloc does not see, so the
        # largest one is added to the traced peak.
        X = np.random.default_rng(0).normal(size=(n, dim))
        blocks = []
        gram_blocks = metric._gram_blocks

        def spy(U):
            for lo, hi, G in gram_blocks(U):
                blocks.append(G.nbytes)
                yield lo, hi, G

        tracemalloc.start()
        try:
            with mock.patch.object(metric, "_gram_blocks", spy):
                agglomerate_fast(X, int(0.9 * n + 0.5))
            peak = tracemalloc.get_traced_memory()[1] + max(blocks)
        finally:
            tracemalloc.stop()
        assert peak / (n * (n - 1) // 2 * 8) <= bound


class TestDendrogram:
    def full(self, n=40, seed=0, dim=4) -> tuple[Dendrogram, np.ndarray]:
        rs = np.random.default_rng(seed)
        X = with_duplicates(rs, random_unit_rows(rs, n, dim), 5)
        dendro, _ = agglomerate_fast(X, 1)
        return dendro, X

    def test_heights_non_decreasing(self):
        dendro, _ = self.full()
        heights = [s.height for s in _oracles.steps(dendro)]
        assert heights == sorted(heights)
        assert all(h >= 0.0 for h in heights)

    def test_forest_validity(self):
        dendro, _ = self.full()
        n = len(dendro.sample_ids)
        used = []
        for i, step in enumerate(_oracles.steps(dendro)):
            assert step.new_id == n + i  # creation order numbering
            assert step.left < step.right < step.new_id
            used += [step.left, step.right]
        assert len(used) == len(set(used))  # each ref consumed at most once

    def test_cut_every_k(self):
        dendro, X = self.full(n=60)
        n = len(X)
        for k in range(1, n + 1):
            part = cut_dendrogram(dendro, k)
            assert len(clusters(part)) == k
            assert sum(len(c) for c in clusters(part)) == n

    def test_cut_reproduces_clustering_partition(self):
        rs = np.random.default_rng(8)
        X = with_duplicates(rs, random_unit_rows(rs, 50, 8), 8)
        for k in (1, 7, 25, 50):
            dendro, part = agglomerate_fast(X, k)
            assert cut_dendrogram(dendro, k) == part
            assert len(_oracles.steps(dendro)) == 50 - k  # stopped dendrogram, not full

    def test_cut_range_checked(self):
        dendro, _ = agglomerate_fast(THREE, 2)  # one step recorded
        assert len(clusters(cut_dendrogram(dendro, 3))) == 3
        with pytest.raises(InvalidArgumentError):
            cut_dendrogram(dendro, 1)  # below achievable range
        with pytest.raises(InvalidArgumentError):
            cut_dendrogram(dendro, 4)

    def test_cuts_nest(self):
        dendro, _ = self.full(n=30)
        prev = cut_dendrogram(dendro, 30)
        for k in range(29, 0, -1):
            cur = cut_dendrogram(dendro, k)
            for cluster in clusters(prev):
                assert any(cluster <= c for c in clusters(cur))
            prev = cur

    def test_sample_ids_preserved(self):
        dendro, part = agglomerate_fast(THREE, 2, sample_ids=[100, 7, 55])
        assert dendro.sample_ids.tolist() == [100, 7, 55]
        assert {frozenset(c) for c in clusters(part)} == {
            frozenset({100, 7}),
            frozenset({55}),
        }

    def test_dump_format(self):
        dendro, _ = self.full(n=10)
        text = format_dendrogram(dendro)
        lines = text.splitlines()
        steps = _oracles.steps(dendro)
        assert len(lines) == len(steps)
        for line, step in zip(lines, steps):
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


class TestCut:
    """The array cut against the reference replay of the canonical steps."""

    @pytest.mark.parametrize("ids", ["positional", "non-monotone"])
    def test_every_cut_matches_the_replay(self, ids):
        rs = np.random.default_rng(13)
        X = with_duplicates(rs, random_unit_rows(rs, 70, 4), 15)
        sample_ids = None if ids == "positional" else rs.permutation(10_000)[:70]
        dendro, _ = agglomerate_fast(X, 1, sample_ids=sample_ids)
        assert (np.diff(dendro.sample_ids) < 0).any() == (ids == "non-monotone")
        for k in range(1, 71):
            assert_replayed(dendro, k, cut_dendrogram(dendro, k))

    @pytest.mark.parametrize("fraction", [0.6, 0.1])  # the threshold engine; a give-up
    def test_interleaved_class_file(self, fraction):
        rs = np.random.default_rng(14)
        X = with_duplicates(rs, random_unit_rows(rs, 300, 6), 60)
        ds = EmbeddingDataset(
            rs.permutation(5000)[:300], rs.integers(0, 3, size=300), X
        )
        _, results = build_cluster_subset(ds, fraction)
        for cid, res in results.items():
            dendro = res.dendrogram
            assert dendro.sample_ids.tolist() == ds.class_arrays(cid)[0].tolist()
            assert_replayed(dendro, len(dendro.sample_ids) - len(dendro.heights), res.partition)


    @pytest.mark.parametrize("heights, pairs, message", [
        # n merges over n points: the pointers form a cycle the jumping never left
        (3, [[1, 0], [2, 1], [0, 2]], "at most 2 merges"),
        (3, [[0, 1], [1, 2], [0, 2]], "at most 2 merges"),
        (2, [[0, 1]], "one integer row (a, b)"),
        (2, [[0, 1, 2], [0, 2, 1]], "one integer row (a, b)"),
        (2, [[0.0, 1.0], [0.0, 2.0]], "one integer row (a, b)"),
        (2, [[0, 1], [0, 3]], "merge 1 joins rows 0 and 3, not 0 <= a < b < 3"),
        (2, [[-1, 1], [0, 2]], "merge 0 joins rows -1 and 1"),
        (2, [[0, 1], [2, 0]], "merge 1 joins rows 2 and 0"),
        (2, [[1, 1], [0, 2]], "merge 0 joins rows 1 and 1"),
        # a merge that joins a row an earlier merge absorbed (the first cut to
        # 2 clusters at k = 1)
        (2, [[0, 2], [1, 2]], "merge 1 joins row 2, which merge 0 absorbed"),
        (2, [[0, 1], [1, 2]], "merge 1 joins row 1, which merge 0 absorbed"),
    ])
    @pytest.mark.parametrize("k", [0, 1])
    def test_malformed_dendrogram_refused(self, heights, pairs, message, k):
        dendro = Dendrogram(np.arange(3), np.zeros(heights), np.array(pairs))
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            cut_dendrogram(dendro, k)


class TestDeterminism:
    def test_permutation_robustness_generic_input(self):
        rs = np.random.default_rng(17)
        X = random_unit_rows(rs, 40, 8)  # real vectors: distinct dissimilarities
        _, base = agglomerate_fast(X, 12)
        for _ in range(5):
            perm = rs.permutation(40)
            _, part = agglomerate_fast(X[perm], 12, sample_ids=perm)
            assert set(clusters(part)) == set(clusters(base))

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

    def test_cap_binds_only_a_class_that_builds_the_matrix(self):
        # At 90% kept the threshold engine finishes the class and never builds
        # the condensed matrix, so a cap far below its size does not bind.
        rs = np.random.default_rng(4)
        X = with_duplicates(rs, random_unit_rows(rs, 300, 8), 10)
        with mock.patch.object(metric, "pairwise_condensed", side_effect=AssertionError):
            for k in (270, 300):
                assert agglomerate_fast(X, k, memory_cap_bytes=0) == agglomerate_fast(X, k)

    def test_cap_boundary_allows_exact_fit(self):
        n = 50
        need = n * (n - 1) // 2 * 8
        X = np.random.default_rng(0).normal(size=(n, 3))
        _, part = agglomerate_fast(X, 5, memory_cap_bytes=need)
        assert len(clusters(part)) == 5
