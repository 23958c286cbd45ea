from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from conftest import clusters, random_unit_rows, stacked_dataset as make_dataset
from redunda.errors import (
    DegenerateClusterError,
    InvalidArgumentError,
    ValidationError,
)
from redunda import selection
from redunda.metric import unit_rows
from redunda.selection import (
    METHOD_CLUSTER,
    METHOD_RANDOM,
    SubsetManifest,
    build_cluster_subset,
    build_random_subset,
    manifest_to_json,
    manifest_to_text,
    per_class_k,
    select_representative,
    validate_manifest,
)


def class_sids(ds, cid):
    return ds.class_arrays(cid)[0].tolist()


def medoid(pts):
    """``select_representative`` on ``(sample_id, vector)`` pairs, as one cluster."""
    pts = sorted(pts, key=lambda p: p[0])
    X = np.array([v for _, v in pts], dtype=np.float64)
    ids = np.array([s for s, _ in pts])
    (rep,) = select_representative(ids, X, unit_rows(X), *csr([np.arange(len(ids))]))
    return rep


def csr(member_rows):
    """``(order, starts)`` of clusters given as arrays of member rows."""
    sizes = [len(r) for r in member_rows]
    return np.concatenate(member_rows), np.cumsum([0, *sizes])


class TestPerClassK:
    def test_paper_operating_point(self):
        assert per_class_k(5000, 0.9) == 4500

    def test_round_half_up(self):
        assert per_class_k(7, 0.5) == 4  # 3.5 rounds up
        assert per_class_k(5, 0.5) == 3  # 2.5 rounds up
        assert per_class_k(4, 0.5) == 2

    def test_floor_one(self):
        assert per_class_k(3, 0.01) == 1
        assert per_class_k(1, 0.9) == 1
        assert per_class_k(100, 0.001) == 1

    def test_cap_at_class_size(self):
        assert per_class_k(3, 1.0) == 3
        assert per_class_k(1, 1.0) == 1

    def test_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            per_class_k(0, 0.5)
        for f in (0.0, -0.1, 1.5):
            with pytest.raises(InvalidArgumentError):
                per_class_k(5, f)

    @given(
        st.integers(1, 10_000),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_always_in_range(self, n, f):
        k = per_class_k(n, f)
        assert 1 <= k <= n


class TestSelectRepresentative:
    def test_three_point_cluster(self):
        # centroid of {(1,0),(1,0.001),(0,1)} is (2/3, 0.3336...); the middle
        # vector (1,0.001) is angularly nearest: d=0.10530... vs 0.10575...
        pts = [(10, [1.0, 0.0]), (11, [1.0, 0.001]), (12, [0.0, 1.0])]
        assert medoid(pts) == 11

    def test_duplicate_tie_smallest_id(self):
        v = [0.6, 0.8]
        assert medoid([(9, v), (4, v), (7, v)]) == 4

    def test_singleton(self):
        assert medoid([(3, [0.0, 0.2])]) == 3

    def test_degenerate_cluster(self):
        pts = [(0, [1.0, 0.0]), (1, [-1.0, 0.0])]
        with pytest.raises(DegenerateClusterError, match="0, 1"):
            medoid(pts)

    def test_empty_cluster(self):
        with pytest.raises(InvalidArgumentError):
            select_representative(np.zeros(0, dtype=np.int64), np.zeros((0, 2)), np.zeros((0, 2)),
                                  np.zeros(0, dtype=np.intp), np.array([0, 0]))

    def test_matches_pure_python_oracle(self):
        rs = np.random.default_rng(5)
        for _ in range(50):
            n = int(rs.integers(1, 9))
            X = random_unit_rows(rs, n, 3)
            ids = [int(i) for i in rs.permutation(100)[:n]]
            pts = list(zip(ids, X))
            assert medoid(pts) == _oracles.medoid(pts)


def per_cluster(ids, X, U, member_rows):
    """The exact per-cluster path, one cluster at a time in partition order."""
    return tuple(selection._medoid(ids[r], X[r], U[r]) for r in member_rows)


def clusters_of(ids, sizes, rs):
    """``member_rows`` for consecutive runs of ``sizes`` rows in a shuffled
    order, each ascending by sample id."""
    order = rs.permutation(len(ids))
    runs = np.split(order, np.cumsum(sizes)[:-1])
    return [r[np.argsort(ids[r])] for r in runs]


class TestCertifiedPass:
    """The class-wide pass against the exact per-cluster path it certifies."""

    @pytest.mark.parametrize("dim", [3, 16, 64, 257, 2048])
    def test_equal_norm_near_ties(self, dim):
        # {x, x[perm]} are equidistant from their centroid in exact
        # arithmetic, so rounding alone decides the medoid; a batch argmin
        # taken without the margin disagrees with the exact path here.
        rs = np.random.default_rng(dim)
        x = rs.normal(size=(400, dim))
        X = np.empty((800, dim))
        X[0::2] = x
        X[1::2] = x[:, rs.permutation(dim)]
        ids = rs.permutation(8000)[:800]
        rows = [r[np.argsort(ids[r])] for r in np.arange(800).reshape(400, 2)]
        U = unit_rows(X)
        assert select_representative(ids, X, U, *csr(rows)) == per_cluster(ids, X, U, rows)

    def test_twins_and_a_member_at_the_centroid(self):
        # Cluster 0: exact duplicates, the larger id first in row order.
        # Cluster 1: its centroid (2, 2, 3) equals its middle member, which
        # has a twin of larger id.  Cluster 2: its centroid (1, 1, 1) is a
        # member with no twin.
        X = np.array([[0.6, 0.8, 0.0], [0.6, 0.8, 0.0],
                      [1, 2, 3], [2, 2, 3], [3, 2, 3], [2, 2, 3],
                      [1, 0, 1], [1, 2, 1], [1, 1, 1]], dtype=np.float64)
        ids = np.array([9, 4, 10, 11, 12, 13, 20, 21, 22])
        rows = [np.array([1, 0]), np.array([2, 3, 4, 5]), np.array([6, 7, 8])]
        U = unit_rows(X)
        got = select_representative(ids, X, U, *csr(rows))
        assert got == per_cluster(ids, X, U, rows) == (4, 11, 22)

    def test_first_error_in_partition_order(self):
        # Both clusters have a zero centroid; grouped by size, the pair
        # (cluster 1) would be visited before the triple (cluster 0).
        X = np.array([[1, 0], [0, 1], [-1, -1], [2, 1], [-2, -1], [1, 1]], dtype=np.float64)
        ids = np.arange(6)
        rows = [np.array([5]), np.array([0, 1, 2]), np.array([3, 4])]
        with pytest.raises(DegenerateClusterError, match=r"cluster \{0, 1, 2\}"):
            select_representative(ids, X, unit_rows(X), *csr(rows))

    @pytest.mark.parametrize("chunk", [1, 7 * 5, 13 * 5, 1 << 16])
    def test_chunk_boundaries_mixed_sizes(self, monkeypatch, chunk):
        # Grid rows repeat, so ties, twins and members at their centroid all
        # occur; chunks from one cluster to a whole size group.
        rs = np.random.default_rng(chunk)
        sizes = rs.integers(1, 17, size=120)
        X = rs.choice([-1.0, 0.5, 1.0, 2.0], size=(int(sizes.sum()), 5))
        ids = rs.permutation(10 * len(X))[: len(X)]
        rows = clusters_of(ids, sizes, rs)
        U = unit_rows(X)
        monkeypatch.setattr(selection, "_CHUNK_ELEMS", chunk)
        assert select_representative(ids, X, U, *csr(rows)) == per_cluster(ids, X, U, rows)

    def test_gathers_stay_chunk_sized(self):
        # A 1300 x 2048 class (21 MB of rows) with 130 pairs: the pass holds
        # a chunk of gathered rows at a time, not every pair's.
        rs = np.random.default_rng(0)
        X = rs.normal(size=(1300, 2048))
        ids = np.arange(1300)
        rows = clusters_of(ids, [2] * 130 + [1] * 1040, rs)
        U = unit_rows(X)
        tracemalloc.start()
        try:
            got = select_representative(ids, X, U, *csr(rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == per_cluster(ids, X, U, rows)
        assert peak < 4 * 8 * selection._CHUNK_ELEMS < X.nbytes // 10


class TestBuildClusterSubset:
    def planted(self):
        """Two classes; class 0 has two exact-duplicate pairs, class 1 is spread."""
        rs = np.random.default_rng(11)
        a = random_unit_rows(rs, 8, 6)
        a = np.vstack([a, a[2], a[5]])  # rows 8, 9 duplicate rows 2, 5
        b = random_unit_rows(rs, 5, 6)
        return make_dataset({0: a, 1: b})

    def test_fraction_one_keeps_everything(self):
        ds = self.planted()
        manifest, results = build_cluster_subset(ds, 1.0)
        for cid in ds.classes():
            assert list(manifest.retained[cid]) == sorted(class_sids(ds, cid))
            assert all(len(c) == 1 for c in clusters(results[cid].partition))
        validate_manifest(manifest, ds)

    def test_duplicates_collapse_first(self):
        ds = self.planted()
        # class 0: 10 points, 2 duplicate pairs; fraction 0.8 -> k=8, so exactly
        # the two zero-height merges happen
        manifest, results = build_cluster_subset(ds, 0.8)
        kept = set(manifest.retained[0])
        assert len(kept) == 8
        assert not {2, 8} <= kept and not {5, 9} <= kept
        assert 2 in kept and 5 in kept  # duplicate pairs keep the smaller id
        assert frozenset({2, 8}) in clusters(results[0].partition)
        assert frozenset({5, 9}) in clusters(results[0].partition)

    def test_counts_match_per_class_k(self):
        ds = self.planted()
        for f in (0.05, 0.3, 0.65, 1.0):
            manifest, _ = build_cluster_subset(ds, f)
            for cid in ds.classes():
                n = ds.class_sizes()[cid]
                assert len(manifest.retained[cid]) == per_class_k(n, f)
            validate_manifest(manifest, ds)

    def test_report_entries_only_when_asked_for(self):
        ds = self.planted()
        _, off = build_cluster_subset(ds, 0.8)
        assert all(r.dissimilarity is None and r.pairs is None for r in off.values())
        _, on = build_cluster_subset(ds, 0.8, dissimilarity=True, nearest_excluded=True)
        assert [(r.partition, r.reps) for r in on.values()] == [
            (r.partition, r.reps) for r in off.values()
        ]
        assert on[0].dissimilarity.cluster_means == (0.0, 0.0)  # the two duplicate pairs
        assert [p.retained_id for p in on[0].pairs] == [2, 5]
        assert len(on[1].dissimilarity.cluster_means) == len(on[1].pairs) == 1
        _, singletons = build_cluster_subset(ds, 1.0, dissimilarity=True, nearest_excluded=True)
        assert all(r.dissimilarity is None and r.pairs == () for r in singletons.values())

    def test_rep_is_cluster_member(self):
        ds = self.planted()
        manifest, results = build_cluster_subset(ds, 0.4)
        for cid, res in results.items():
            kept = set(manifest.retained[cid])
            for rep, cluster in zip(res.reps, clusters(res.partition), strict=True):
                assert kept & cluster == {rep}

    def test_deterministic_reruns(self):
        ds = self.planted()
        assert build_cluster_subset(ds, 0.5) == build_cluster_subset(ds, 0.5)

    def test_manifest_fields(self):
        ds = self.planted()
        manifest, _ = build_cluster_subset(ds, 0.5)
        assert manifest.method == METHOD_CLUSTER
        assert manifest.retention_fraction == 0.5
        assert manifest.seed is None
        assert manifest.source_digest == ds.digest()

    def test_class_errors_are_tagged(self):
        ds = make_dataset({7: [[1.0, 0.0], [-1.0, 0.0]]})
        with pytest.raises(DegenerateClusterError, match="class 7:"):
            build_cluster_subset(ds, 0.5)

    def test_bad_fraction(self):
        ds = self.planted()
        for f in (0.0, -1.0, 1.0001):
            with pytest.raises(InvalidArgumentError):
                build_cluster_subset(ds, f)

    def test_results_ascending_classes(self):
        ds = self.planted()
        _, results = build_cluster_subset(ds, 0.5)
        assert list(results) == sorted(ds.classes())
        for cid, res in results.items():
            n = ds.class_sizes()[cid]
            d = res.dendrogram
            assert d.class_id == cid
            assert len(d.sample_ids) == n
            assert len(_oracles.steps(d)) == n - per_class_k(n, 0.5)

    def test_scale_invariance_of_groups(self):
        # per-vector scaling by powers of two is exact in float: the pairwise
        # matrix is bit-identical, so the grouping must match.  The medoid is
        # only pinned under a *global* rescale (the centroid direction moves
        # when vectors are scaled individually).
        rs = np.random.default_rng(2)
        X = random_unit_rows(rs, 30, 4)
        scales = 2.0 ** rs.integers(-3, 4, size=30)
        m_unit, r_unit = build_cluster_subset(make_dataset({0: X}), 0.4)
        _, r_scaled = build_cluster_subset(
            make_dataset({0: X * scales[:, None]}), 0.4
        )
        assert r_unit[0].partition == r_scaled[0].partition
        m_global, r_global = build_cluster_subset(make_dataset({0: X * 4.0}), 0.4)
        assert r_unit[0].partition == r_global[0].partition
        assert m_unit.retained == m_global.retained


class TestBuildRandomSubset:
    def spread(self):
        rs = np.random.default_rng(31)
        return make_dataset({0: random_unit_rows(rs, 20, 4),
                             1: random_unit_rows(rs, 9, 4)})

    def test_counts_and_membership(self):
        ds = self.spread()
        manifest = build_random_subset(ds, 0.5, seed=77)
        assert manifest.method == METHOD_RANDOM
        assert manifest.seed == 77
        validate_manifest(manifest, ds)
        assert len(manifest.retained[0]) == 10
        assert len(manifest.retained[1]) == 5  # 4.5 rounds up

    def test_fraction_one(self):
        ds = self.spread()
        manifest = build_random_subset(ds, 1.0, seed=0)
        for cid in ds.classes():
            assert list(manifest.retained[cid]) == sorted(class_sids(ds, cid))

    def test_seed_determinism(self):
        ds = self.spread()
        assert build_random_subset(ds, 0.4, seed=5) == build_random_subset(
            ds, 0.4, seed=5
        )
        assert build_random_subset(ds, 0.4, seed=5) != build_random_subset(
            ds, 0.4, seed=6
        )

    def test_classes_draw_independent_streams(self):
        # two classes with identical content must not pick identical positions
        rs = np.random.default_rng(1)
        X = random_unit_rows(rs, 40, 3)
        ds = make_dataset({0: X, 1: X})
        manifest = build_random_subset(ds, 0.25, seed=9)
        picks0 = [s for s in manifest.retained[0]]
        picks1 = [s - 40 for s in manifest.retained[1]]
        assert picks0 != picks1

    def test_bad_fraction(self):
        with pytest.raises(InvalidArgumentError):
            build_random_subset(self.spread(), 1.2, seed=0)


class TestManifestSerialization:
    def manifest(self):
        ds = make_dataset({0: [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]],
                           3: [[0.5, 0.5]]})
        manifest, _ = build_cluster_subset(ds, 0.7)
        return manifest, ds

    @staticmethod
    def rebuilt(manifest) -> SubsetManifest:
        """Every field of ``manifest`` as read back from its JSON text."""
        doc = json.loads(manifest_to_json(manifest))
        retained = {int(cid): tuple(ids) for cid, ids in doc["retained"].items()}
        return SubsetManifest(doc["method"], doc["fraction"], doc["seed"],
                              doc["source_digest"], retained)

    def test_json_round_trip(self):
        manifest, _ = self.manifest()
        back = self.rebuilt(manifest)  # ids compare as tuples, so in order
        assert back == manifest and back.seed is None
        assert back.retention_fraction.hex() == manifest.retention_fraction.hex()

    def test_json_is_stable_and_sorted(self):
        manifest, _ = self.manifest()
        text = manifest_to_json(manifest)
        assert text == manifest_to_json(manifest)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["method"] == METHOD_CLUSTER
        assert doc["seed"] is None
        assert set(doc["retained"]) == {"0", "3"}

    def test_seed_survives_round_trip(self):
        _, ds = self.manifest()
        manifest = build_random_subset(ds, 0.7, seed=123)
        back = self.rebuilt(manifest)
        assert back == manifest and type(back.seed) is int and back.seed == 123
        assert back.retention_fraction.hex() == (0.7).hex()

    def test_text_format(self):
        manifest, _ = self.manifest()
        lines = manifest_to_text(manifest).splitlines()
        parsed = [(int(a), int(b)) for a, b in (l.split() for l in lines)]
        assert parsed == sorted(parsed)
        assert len(parsed) == manifest.total_retained()


class TestValidateManifest:
    def pair(self):
        rs = np.random.default_rng(4)
        ds = make_dataset({0: random_unit_rows(rs, 6, 3),
                           1: random_unit_rows(rs, 4, 3)})
        manifest, _ = build_cluster_subset(ds, 0.5)
        return manifest, ds

    def swap(self, manifest, **kw):
        fields = dict(
            method=manifest.method,
            retention_fraction=manifest.retention_fraction,
            seed=manifest.seed,
            source_digest=manifest.source_digest,
            retained=manifest.retained,
        )
        fields.update(kw)
        return SubsetManifest(**fields)

    def test_accepts_good_manifest(self):
        manifest, ds = self.pair()
        validate_manifest(manifest, ds)

    def test_rejects_fraction_out_of_range(self):
        manifest, ds = self.pair()
        with pytest.raises(ValidationError) as exc:
            validate_manifest(self.swap(manifest, retention_fraction=1.5), ds)
        assert str(exc.value) == "fraction out of range: 1.5"

    def test_digest_mismatch(self):
        manifest, ds = self.pair()
        bad = self.swap(manifest, source_digest="0" * 64)
        with pytest.raises(ValidationError, match="digest"):
            validate_manifest(bad, ds)

    def test_unknown_method(self):
        manifest, ds = self.pair()
        with pytest.raises(ValidationError, match="method"):
            validate_manifest(self.swap(manifest, method="other"), ds)

    def test_class_set_mismatch(self):
        manifest, ds = self.pair()
        extra = dict(manifest.retained)
        extra[9] = (0,)
        with pytest.raises(ValidationError, match="class"):
            validate_manifest(self.swap(manifest, retained=extra), ds)

    def test_wrong_count(self):
        manifest, ds = self.pair()
        r = {c: tuple(v) for c, v in manifest.retained.items()}
        r[0] = r[0][:-1]
        with pytest.raises(ValidationError, match="expected"):
            validate_manifest(self.swap(manifest, retained=r), ds)

    def test_unsorted_ids(self):
        manifest, ds = self.pair()
        r = {c: tuple(v) for c, v in manifest.retained.items()}
        r[0] = tuple(reversed(r[0]))
        with pytest.raises(ValidationError, match="ascending"):
            validate_manifest(self.swap(manifest, retained=r), ds)

    def test_duplicate_ids(self):
        manifest, ds = self.pair()
        r = {c: tuple(v) for c, v in manifest.retained.items()}
        r[0] = (r[0][0],) * len(r[0])
        with pytest.raises(ValidationError, match="duplicate"):
            validate_manifest(self.swap(manifest, retained=r), ds)

    def test_foreign_sample(self):
        manifest, ds = self.pair()
        r = {c: tuple(v) for c, v in manifest.retained.items()}
        r[0] = tuple(sorted(r[0][:-1] + (999,)))
        with pytest.raises(ValidationError, match="999"):
            validate_manifest(self.swap(manifest, retained=r), ds)

    def test_wrong_class_member(self):
        manifest, ds = self.pair()
        r = {c: tuple(v) for c, v in manifest.retained.items()}
        # sample 0 belongs to class 0; plant it in class 1's list
        r[1] = tuple(sorted(set(r[1][:-1]) | {0}))
        with pytest.raises(ValidationError):
            validate_manifest(self.swap(manifest, retained=r), ds)
