"""Counter-based deterministic random streams with per-purpose substreams.

The raw word source is numpy's Philox (4x64, 10 rounds) bit generator keyed
by ``(seed, stream_id)``.  Everything built on top of the raw words --
bounded integers, uniforms, gaussians, sampling without replacement -- is
implemented here rather than through ``numpy.random.Generator`` methods, so
that draws stay bit-identical across platforms and numpy versions.  Only
``random_raw`` of the bit generator is relied on, which is part of numpy's
stream-compatibility guarantee.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

GENERATOR_NAME = "philox4x64-10+rejection-fisher-yates"
GENERATOR_VERSION = 1

# Domain tags keep substreams for different purposes disjoint even when the
# same (seed, class_id) pair is used for both.
DOMAIN_SAMPLING = 1
DOMAIN_SYNTH = 2

_MASK64 = (1 << 64) - 1
_TWO53_INV = 2.0**-53
_BUFFER_WORDS = 256


class Stream:
    """One reproducible substream; draws depend only on ``(seed, stream_id)``."""

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        if seed < 0:
            raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
        if seed > _MASK64:
            raise InvalidArgumentError(f"seed must be below 2**64, got {seed}")
        key = np.array([seed, stream_id & _MASK64], dtype=np.uint64)
        self._bits = np.random.Philox(key=key)
        self._buf: list[int] = []

    def _word(self) -> int:
        """Next raw 64-bit word."""
        if not self._buf:
            self._buf = [int(w) for w in self._bits.random_raw(_BUFFER_WORDS)]
            self._buf.reverse()
        return self._buf.pop()

    def below(self, bound: int) -> int:
        """Unbiased integer in ``[0, bound)`` via rejection on raw words.

        ``bound == 1`` returns 0 without consuming stream state.
        """
        if bound <= 0:
            raise InvalidArgumentError(f"bound must be positive, got {bound}")
        if bound == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            w = self._word()
            if w < limit:
                return w % bound

    def uniform(self) -> float:
        """Double in ``[0, 1)`` with 53 random bits."""
        return (self._word() >> 11) * _TWO53_INV

    def gaussians(self, count: int) -> np.ndarray:
        """``count`` standard normals via Box-Muller on stream uniforms."""
        if count < 0:
            raise InvalidArgumentError(f"count must be non-negative, got {count}")
        out = np.empty(count, dtype=np.float64)
        for i in range(0, count, 2):
            u1 = ((self._word() >> 11) + 1) * _TWO53_INV  # (0, 1]: log stays finite
            u2 = (self._word() >> 11) * _TWO53_INV
            r = math.sqrt(-2.0 * math.log(u1))
            out[i] = r * math.cos(2.0 * math.pi * u2)
            if i + 1 < count:
                out[i + 1] = r * math.sin(2.0 * math.pi * u2)
        return out

    def unit_vector(self, dim: int) -> np.ndarray:
        """Uniform direction on the unit sphere in ``dim`` dimensions."""
        if dim < 1:
            raise InvalidArgumentError(f"dim must be positive, got {dim}")
        while True:
            v = self.gaussians(dim)
            norm = math.sqrt(float(v @ v))
            if norm > 1e-12:
                return v / norm

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """``k`` distinct indices from ``range(n)`` by partial Fisher-Yates."""
        if n < 0 or not 0 <= k <= n:
            raise InvalidArgumentError(f"cannot sample {k} of {n} without replacement")
        arr = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            arr[i], arr[j] = arr[j], arr[i]
        return arr[:k]


def class_stream(seed: int, class_id: int, domain: int) -> Stream:
    """Substream for one class under one purpose domain."""
    if class_id < 0 or class_id > 0xFFFFFFFF:
        raise InvalidArgumentError(f"class_id out of range: {class_id}")
    return Stream(seed, (domain << 32) | class_id)
