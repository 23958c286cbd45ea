from __future__ import annotations

import math

import numpy as np
import pytest

from redunda.errors import InvalidArgumentError
from redunda.rng import DOMAIN_SAMPLING, DOMAIN_SYNTH, Stream, class_stream


class TestStream:
    def test_same_key_same_words(self):
        a = [Stream(7, 3)._word() for _ in range(50)]
        b = [Stream(7, 3)._word() for _ in range(50)]
        assert a == b

    def test_different_stream_ids_diverge(self):
        a = [Stream(7, 0)._word() for _ in range(8)]
        b = [Stream(7, 1)._word() for _ in range(8)]
        assert a != b

    def test_seed_must_fit_64_bits(self):
        Stream(2**64 - 1)
        with pytest.raises(InvalidArgumentError, match="below 2\\*\\*64"):
            Stream(2**64)

    def test_different_seeds_diverge(self):
        a = [Stream(1, 0)._word() for _ in range(8)]
        b = [Stream(2, 0)._word() for _ in range(8)]
        assert a != b

    def test_below_range_and_determinism(self):
        s = Stream(3)
        draws = [s.below(10) for _ in range(1000)]
        assert all(0 <= d < 10 for d in draws)
        s2 = Stream(3)
        assert draws == [s2.below(10) for _ in range(1000)]
        assert len(set(draws)) == 10  # all values reachable

    def test_below_one_consumes_nothing(self):
        s = Stream(3)
        assert s.below(1) == 0
        # next word identical to a fresh stream's first word
        assert s._word() == Stream(3)._word()

    def test_below_rejects_nonpositive(self):
        with pytest.raises(InvalidArgumentError):
            Stream(0).below(0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Stream(-1)

    def test_uniform_in_unit_interval(self):
        s = Stream(5)
        us = [s.uniform() for _ in range(2000)]
        assert all(0.0 <= u < 1.0 for u in us)
        assert 0.4 < sum(us) / len(us) < 0.6

    def test_gaussian_moments(self):
        g = Stream(11).gaussians(20000)
        assert abs(float(g.mean())) < 0.05
        assert abs(float(g.var()) - 1.0) < 0.05

    def test_unit_vector_has_unit_norm(self):
        for dim in (2, 5, 64):
            v = Stream(2).unit_vector(dim)
            assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-12)

    def test_sample_without_replacement_properties(self):
        s = Stream(9)
        picks = s.sample_without_replacement(20, 8)
        assert len(picks) == 8
        assert len(set(picks)) == 8
        assert all(0 <= p < 20 for p in picks)
        assert picks == Stream(9).sample_without_replacement(20, 8)

    def test_sample_full_population_is_permutation(self):
        picks = Stream(4).sample_without_replacement(10, 10)
        assert sorted(picks) == list(range(10))

    def test_sample_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            Stream(0).sample_without_replacement(3, 4)


class TestClassStream:
    def test_classes_are_independent_substreams(self):
        a = [class_stream(7, 0, DOMAIN_SAMPLING)._word() for _ in range(8)]
        b = [class_stream(7, 1, DOMAIN_SAMPLING)._word() for _ in range(8)]
        assert a != b

    def test_domains_are_separated(self):
        a = [class_stream(7, 0, DOMAIN_SAMPLING)._word() for _ in range(8)]
        b = [class_stream(7, 0, DOMAIN_SYNTH)._word() for _ in range(8)]
        assert a != b

    def test_class_id_range_checked(self):
        with pytest.raises(InvalidArgumentError):
            class_stream(0, -1, DOMAIN_SAMPLING)
        with pytest.raises(InvalidArgumentError):
            class_stream(0, 1 << 32, DOMAIN_SAMPLING)

    def test_raw_stream_is_philox(self):
        # pin the underlying generator: keyed Philox words must match numpy's
        key = np.array([3, (DOMAIN_SAMPLING << 32) | 5], dtype=np.uint64)
        expect = [int(w) for w in np.random.Philox(key=key).random_raw(4)]
        s = class_stream(3, 5, DOMAIN_SAMPLING)
        assert [s._word() for _ in range(4)] == expect
