from __future__ import annotations

import numpy as np
import pytest

import _oracles
from conftest import clusters
from redunda import metric, rng, synth
from redunda.cluster import agglomerate_fast
from redunda.errors import InvalidArgumentError, MarginError
from redunda.store import EmbeddingDataset, canonical_bytes
from redunda.synth import PlantedSpec, generate, ground_truth_to_json, measure_separation

SPEC_123 = dict(
    classes=1,
    groups_per_class=3,
    dim=8,
    within_spread=1e-3,
    between_margin=0.5,
    sizes=(1, 2, 3),
)


def recover(dataset, class_id, k):
    ids, X = dataset.class_arrays(class_id)
    _, part = agglomerate_fast(X, k, sample_ids=ids)
    return set(clusters(part))


class TestSpecValidation:
    def base(self, **kw):
        fields = dict(SPEC_123, seed=0)
        fields.update(kw)
        return PlantedSpec(**fields)

    def test_good_spec(self):
        self.base()

    def test_bad_counts(self):
        with pytest.raises(InvalidArgumentError):
            self.base(classes=0)
        with pytest.raises(InvalidArgumentError):
            self.base(groups_per_class=0, sizes=())
        with pytest.raises(InvalidArgumentError):
            self.base(dim=1)

    def test_class_count_the_streams_can_key(self):
        # Class ids key 32-bit streams, so 2**32 classes is the most there can
        # be; more is refused up front, not when generation reaches id 2**32.
        self.base(classes=2**32)
        with pytest.raises(InvalidArgumentError, match=r"^classes must be <= 2\*\*32, got 4294967297$"):
            self.base(classes=2**32 + 1)
        with pytest.raises(InvalidArgumentError, match="^classes must be >= 1, got 0$"):
            self.base(classes=0)

    def test_dim_the_binary_header_can_hold(self):
        # A binary header holds dim in 32 bits; the spec is refused up front.
        self.base(dim=2**32 - 1)
        with pytest.raises(InvalidArgumentError, match=r"^dim must be <= 2\*\*32 - 1, got 4294967296$"):
            self.base(dim=2**32)
        with pytest.raises(InvalidArgumentError, match="^dim must be >= 2, got 1$"):
            self.base(dim=1)

    def test_spread_range(self):
        with pytest.raises(InvalidArgumentError):
            self.base(within_spread=-0.1)
        with pytest.raises(InvalidArgumentError):
            self.base(within_spread=0.6)

    def test_margin_must_dominate_spread(self):
        with pytest.raises(InvalidArgumentError, match="4 \\* within_spread"):
            self.base(within_spread=0.2, between_margin=0.8)  # needs > 0.8
        self.base(within_spread=0.2, between_margin=0.81)

    def test_margin_below_two(self):
        with pytest.raises(InvalidArgumentError):
            self.base(between_margin=2.0)

    def test_exactly_one_size_source(self):
        with pytest.raises(InvalidArgumentError, match="exactly one"):
            self.base(size_range=(1, 3))  # sizes also set
        with pytest.raises(InvalidArgumentError, match="exactly one"):
            self.base(sizes=None)

    def test_sizes_shape(self):
        with pytest.raises(InvalidArgumentError, match="expected 3"):
            self.base(sizes=(1, 2))
        with pytest.raises(InvalidArgumentError):
            self.base(sizes=(1, 0, 2))

    def test_size_range_bounds(self):
        with pytest.raises(InvalidArgumentError):
            self.base(sizes=None, size_range=(0, 3))
        with pytest.raises(InvalidArgumentError):
            self.base(sizes=None, size_range=(4, 3))


class TestGenerate:
    def test_planted_sizes_example(self):
        ds, truth, _ = generate(PlantedSpec(**SPEC_123, seed=7))
        assert len(ds) == 6
        assert ds.classes() == [0]
        assert sorted(len(g) for g in truth[0]) == [1, 2, 3]
        assert recover(ds, 0, 3) == set(truth[0])

    def test_determinism(self):
        a, truth_a, _ = generate(PlantedSpec(**SPEC_123, seed=11))
        b, truth_b, _ = generate(PlantedSpec(**SPEC_123, seed=11))
        assert truth_a == truth_b
        assert canonical_bytes(a) == canonical_bytes(b)

    def test_seed_changes_data(self):
        a, _, _ = generate(PlantedSpec(**SPEC_123, seed=1))
        b, _, _ = generate(PlantedSpec(**SPEC_123, seed=2))
        assert canonical_bytes(a) != canonical_bytes(b)

    def test_zero_spread_exact_duplicates(self):
        spec = PlantedSpec(
            classes=2,
            groups_per_class=2,
            dim=4,
            within_spread=0.0,
            between_margin=0.5,
            seed=3,
            sizes=(3, 2),
        )
        ds, truth, cert = generate(spec)
        assert cert == measure_separation(ds, truth)
        assert cert.max_within == 0.0
        for groups in truth.values():
            for g in groups:
                rows = [ds.vectors[sid] for sid in sorted(g)]
                for r in rows[1:]:
                    assert np.array_equal(rows[0], r)

    def test_positional_class_major_ids(self):
        ds, truth, _ = generate(
            PlantedSpec(
                classes=3,
                groups_per_class=2,
                dim=4,
                within_spread=0.01,
                between_margin=0.5,
                seed=5,
                sizes=(2, 2),
            )
        )
        assert ds.has_positional_ids()
        # class-major: class c owns the contiguous id block [4c, 4c+4)
        for cid, groups in truth.items():
            ids = sorted(i for g in groups for i in g)
            assert ids == list(range(4 * cid, 4 * cid + 4))

    def test_classes_get_distinct_streams(self):
        ds, truth, _ = generate(
            PlantedSpec(
                classes=2,
                groups_per_class=1,
                dim=6,
                within_spread=0.01,
                between_margin=0.5,
                seed=9,
                sizes=(3,),
            )
        )
        a = np.asarray([ds.vectors[s] for s in sorted(truth[0][0])])
        b = np.asarray([ds.vectors[s] for s in sorted(truth[1][0])])
        assert not np.array_equal(a, b)

    def test_size_range_respected(self):
        spec = PlantedSpec(
            classes=2,
            groups_per_class=6,
            dim=8,
            within_spread=0.01,
            between_margin=0.3,
            seed=21,
            size_range=(2, 5),
        )
        ds, truth, _ = generate(spec)
        sizes = [len(g) for groups in truth.values() for g in groups]
        assert len(sizes) == 12
        assert all(2 <= s <= 5 for s in sizes)
        assert len(ds) == sum(sizes)

    def test_margin_unsatisfiable(self):
        spec = PlantedSpec(
            classes=1,
            groups_per_class=50,
            dim=2,
            within_spread=0.1,
            between_margin=0.9,
            seed=0,
            size_range=(1, 1),
        )
        with pytest.raises(MarginError, match="anchor"):
            generate(spec)


def scalar_anchors(stream, spec):
    """The anchors drawn with every candidate compared to every anchor kept
    by ``metric.cosine_dissimilarity``, as before the screen."""
    anchors = []
    for _ in range(spec.groups_per_class):
        for _ in range(synth._ANCHOR_ATTEMPTS):
            cand = stream.unit_vector(spec.dim)
            if all(metric.cosine_dissimilarity(cand, a) > spec.between_margin for a in anchors):
                anchors.append(cand)
                break
    return np.array(anchors)


class TestAnchorScreen:
    @pytest.mark.parametrize("dim", [2, 5, 32, 300])
    def test_a_candidate_exactly_at_the_margin(self, dim):
        # The second candidate's scalar dissimilarity to the first is the
        # margin: it must be refused there and kept one ulp below, as the
        # scalar path decides, whatever the screening product reads.
        for seed in range(8):
            stream = rng.class_stream(seed, 0, rng.DOMAIN_SYNTH)
            first, second = stream.unit_vector(dim), stream.unit_vector(dim)
            d = metric.cosine_dissimilarity(second, first)
            for margin in (d, np.nextafter(d, 0.0)):
                spec = PlantedSpec(classes=1, groups_per_class=2, dim=dim, within_spread=0.0,
                                   between_margin=margin, seed=seed, sizes=(1, 1))
                got = synth._draw_anchors(rng.class_stream(seed, 0, rng.DOMAIN_SYNTH), spec)
                want = scalar_anchors(rng.class_stream(seed, 0, rng.DOMAIN_SYNTH), spec)
                assert got.tobytes() == want.tobytes()
                assert np.array_equal(got[1], second) == (margin < d)

    def test_many_anchors_near_a_tight_margin(self):
        spec = PlantedSpec(classes=1, groups_per_class=20, dim=8, within_spread=0.0,
                           between_margin=0.6, seed=1, sizes=(1,) * 20)
        got = synth._draw_anchors(rng.class_stream(1, 0, rng.DOMAIN_SYNTH), spec)
        want = scalar_anchors(rng.class_stream(1, 0, rng.DOMAIN_SYNTH), spec)
        assert got.tobytes() == want.tobytes()


def _generated(classes):
    spec = PlantedSpec(
        classes=classes,
        groups_per_class=3,
        dim=5,
        within_spread=0.02,
        between_margin=0.4,
        seed=13,
        sizes=(2, 3, 2),
    )
    ds, truth, _ = generate(spec)
    return ds, truth


def _explicit_ids(spread):
    """Two interleaved classes with non-positional ids; class 0's groups are
    not contiguous in row order and one of them is a singleton.  With
    ``spread`` 0 every row equals its anchor exactly."""
    rs = np.random.default_rng(5)
    anchors = rs.normal(size=(4, 4))

    def near(a):
        return anchors[a] + spread * rs.normal(size=4)

    rows = [near(0), near(1), near(0), near(2), near(1), near(0), near(3), near(3)]
    ids = [50, 7, 93, 12, 61, 30, 40, 41]
    classes = [0, 0, 0, 0, 0, 0, 1, 1]
    ds = EmbeddingDataset(ids, classes, np.array(rows))
    truth = {
        0: [frozenset({50, 93, 30}), frozenset({7, 61}), frozenset({12})],
        1: [frozenset({40}), frozenset({41})],
    }
    return ds, truth


CERT_CASES = {
    "one-class": lambda: _generated(1),
    "two-classes": lambda: _generated(2),
    "explicit-ids": lambda: _explicit_ids(0.01),
    "zero-spread-group": lambda: _explicit_ids(0.0),
}


class TestCertificate:
    def test_bounds_over_many_specs(self):
        for seed in range(20):
            spread = [0.0, 1e-4, 1e-2, 0.05][seed % 4]
            margin = max(0.3, 4.5 * spread)
            spec = PlantedSpec(
                classes=1 + seed % 2,
                groups_per_class=2 + seed % 4,
                dim=8,
                within_spread=spread,
                between_margin=margin,
                seed=seed,
                size_range=(1, 4),
            )
            ds, truth, _ = generate(spec)
            cert = measure_separation(ds, truth)
            if cert.max_within is not None:
                if spread == 0.0:
                    assert cert.max_within == 0.0
                else:
                    assert cert.max_within < 2.0 * spread
            if cert.min_between is not None:
                assert cert.min_between > margin - 2.0 * spread

    def test_vacuous_cases(self):
        # all-singleton groups: no within pairs; one group per class: no between pairs
        ds, truth, _ = generate(
            PlantedSpec(
                classes=1,
                groups_per_class=2,
                dim=4,
                within_spread=0.01,
                between_margin=0.5,
                seed=1,
                sizes=(1, 1),
            )
        )
        assert measure_separation(ds, truth).max_within is None
        ds, truth, _ = generate(
            PlantedSpec(
                classes=1,
                groups_per_class=1,
                dim=4,
                within_spread=0.01,
                between_margin=0.5,
                seed=1,
                sizes=(3,),
            )
        )
        assert measure_separation(ds, truth).min_between is None

    @pytest.mark.parametrize("case", list(CERT_CASES))
    def test_matches_scalar_brute_force(self, case):
        ds, truth = CERT_CASES[case]()
        cert = measure_separation(ds, truth)
        row = {sid: r for r, sid in enumerate(ds.sample_ids.tolist())}
        within, between = [], []
        for groups in truth.values():
            groups = [sorted(g) for g in groups]
            for gi, g in enumerate(groups):
                for i in g:
                    for j in g:
                        if i < j:
                            within.append(
                                _oracles.cos_dissim(ds.vectors[row[i]], ds.vectors[row[j]])
                            )
                for h in groups[gi + 1 :]:
                    for i in g:
                        for j in h:
                            between.append(
                                _oracles.cos_dissim(ds.vectors[row[i]], ds.vectors[row[j]])
                            )
        assert cert.max_within == pytest.approx(max(within), abs=1e-12)
        assert cert.min_between == pytest.approx(min(between), abs=1e-12)
        if case == "zero-spread-group":
            assert cert.max_within == 0.0

    def test_id_outside_class_rejected(self):
        ds = EmbeddingDataset([4, 9, 2], [0, 1, 0], np.eye(3))
        with pytest.raises(InvalidArgumentError, match="outside the class"):
            measure_separation(ds, {0: [frozenset({4}), frozenset({2, 9})]})
        with pytest.raises(InvalidArgumentError, match="outside the class"):
            measure_separation(ds, {0: [frozenset({2, 10})]})  # above every id of the class

    def test_overlapping_groups_rejected(self):
        # Row 1 in both groups would be labelled by its last group only, and
        # the certificate would claim a separation no partition has.
        ds = EmbeddingDataset(range(4), [0] * 4, np.eye(4) + 0.1)
        with pytest.raises(InvalidArgumentError, match="twice"):
            measure_separation(ds, {0: [frozenset({0, 1}), frozenset({1, 2})]})


class TestRecovery:
    def test_planted_recovery_across_seeds(self):
        for seed in range(15):
            spec = PlantedSpec(
                classes=2,
                groups_per_class=4,
                dim=8,
                within_spread=0.01,
                between_margin=0.25,
                seed=100 + seed,
                size_range=(1, 5),
            )
            ds, truth, _ = generate(spec)
            for cid, groups in truth.items():
                assert recover(ds, cid, len(groups)) == set(groups)


class TestGroundTruthIO:
    def truth(self):
        return {1: [frozenset({3, 4}), frozenset({5})], 0: [frozenset({0, 1, 2})]}

    def test_json_sorted_and_stable(self):
        text = ground_truth_to_json(self.truth())
        assert text == ground_truth_to_json(self.truth())
        assert text.index('"0"') < text.index('"1"')
        assert "[\n      3,\n      4\n    ]" in text  # members ascending
