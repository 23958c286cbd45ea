"""Synthetic embedding generator with planted redundant groups.

Each class gets ``groups_per_class`` anchor directions kept pairwise more
than ``between_margin`` (Delta) apart; group members are tangent-space
perturbations of their anchor at an angle below asin(delta).  That keeps
within-group dissimilarity below 2*delta and cross-group dissimilarity above
Delta - 2*delta, the separation a complete-linkage cut at k = group count
needs to recover the planted partition.  ``generate`` measures both extremes
on the data it built and returns them as the separation certificate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import metric, rng
from .cluster import Partition
from .errors import InvalidArgumentError, MarginError
from .store import EmbeddingDataset

_ANCHOR_ATTEMPTS = 200  # retries per anchor before giving up on the margin


@dataclass(frozen=True)
class PlantedSpec:
    """Parameters of a planted-group dataset.

    Exactly one of ``sizes`` (explicit per-group sizes) or ``size_range``
    (inclusive uniform bounds) must be given.  ``within_spread`` (delta)
    bounds how far group members may drift from their anchor; anchors are
    kept pairwise more than ``between_margin`` (Delta) apart, and Delta
    must exceed 4*delta so the separation certificate can hold: generated
    data satisfies max-within < 2*delta and min-between > Delta - 2*delta.
    """

    classes: int
    groups_per_class: int
    dim: int
    within_spread: float
    between_margin: float
    seed: int
    sizes: tuple[int, ...] | None = None
    size_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.classes < 1:
            raise InvalidArgumentError(f"classes must be >= 1, got {self.classes}")
        if self.classes > 1 << 32:  # class ids key 32-bit streams (rng.class_stream)
            raise InvalidArgumentError(f"classes must be <= 2**32, got {self.classes}")
        if self.groups_per_class < 1:
            raise InvalidArgumentError(
                f"groups_per_class must be >= 1, got {self.groups_per_class}"
            )
        if self.dim < 2:
            raise InvalidArgumentError(f"dim must be >= 2, got {self.dim}")
        if not 0.0 <= self.within_spread <= 0.5:
            raise InvalidArgumentError(
                f"within_spread must lie in [0, 0.5], got {self.within_spread}"
            )
        if not self.between_margin > 4.0 * self.within_spread:
            raise InvalidArgumentError(
                f"between_margin {self.between_margin} must exceed "
                f"4 * within_spread = {4.0 * self.within_spread}"
            )
        if self.between_margin >= 2.0:
            raise InvalidArgumentError("between_margin must be below 2")
        if (self.sizes is None) == (self.size_range is None):
            raise InvalidArgumentError("give exactly one of sizes or size_range")
        if self.sizes is not None:
            if len(self.sizes) != self.groups_per_class:
                raise InvalidArgumentError(
                    f"sizes lists {len(self.sizes)} groups, expected {self.groups_per_class}"
                )
            if any(s < 1 for s in self.sizes):
                raise InvalidArgumentError("every group size must be >= 1")
        if self.size_range is not None:
            lo, hi = self.size_range
            if not 1 <= lo <= hi:
                raise InvalidArgumentError(f"bad size_range ({lo}, {hi})")


@dataclass(frozen=True)
class SeparationCertificate:
    """Realized extremes over the generated data (None when vacuous)."""

    max_within: float | None
    min_between: float | None


def _draw_anchors(stream: rng.Stream, spec: PlantedSpec) -> np.ndarray:
    """Keeps a candidate when its ``metric.cosine_dissimilarity`` to each anchor kept is above
    the margin.  ``1 - A @ c`` and each scalar value lie within ``(2 d + 5) u`` (u = 2**-53, to
    first order: unit rows, d-term dot products) of the exact value, so only anchors it puts
    within ``eps = 8 (d + 4) u`` of the margin take the scalar path."""
    margin, eps = spec.between_margin, 8.0 * (spec.dim + 4) * 2.0**-53
    anchors = np.empty((spec.groups_per_class, spec.dim))
    for g in range(spec.groups_per_class):
        for _ in range(_ANCHOR_ATTEMPTS):
            cand = stream.unit_vector(spec.dim)
            d = 1.0 - anchors[:g] @ cand
            if (d >= margin - eps).all() and all(
                metric.cosine_dissimilarity(cand, anchors[i]) > margin
                for i in np.flatnonzero(d <= margin + eps)
            ):
                anchors[g] = cand
                break
        else:
            raise MarginError(
                f"could not place anchor {g + 1}/{spec.groups_per_class} with "
                f"pairwise dissimilarity > {spec.between_margin} in dim {spec.dim} "
                f"after {_ANCHOR_ATTEMPTS} attempts"
            )
    return anchors


def _perturb(stream: rng.Stream, anchor: np.ndarray, target: float) -> np.ndarray:
    """Point at cosine dissimilarity exactly ``target`` from the unit anchor."""
    if target <= 0.0:
        return anchor.copy()
    while True:
        t = stream.gaussians(len(anchor))
        t -= float(t @ anchor) * anchor
        norm = math.sqrt(float(t @ t))
        if norm > 1e-12:
            t /= norm
            break
    theta = math.acos(1.0 - target)
    return math.cos(theta) * anchor + math.sin(theta) * t


def generate(
    spec: PlantedSpec,
) -> tuple[EmbeddingDataset, dict[int, list[frozenset[int]]], SeparationCertificate]:
    """Deterministic dataset, ground-truth groups and the separation
    certificate measured on them, for a PlantedSpec.

    sample_ids are sequential in generation order (class-major, then group,
    then member), so they are positional and the binary encoding stays
    implicit-id.
    """
    cids: list[int] = []
    rows: list[np.ndarray] = []
    truth: dict[int, list[frozenset[int]]] = {}
    for cid in range(spec.classes):
        stream = rng.class_stream(spec.seed, cid, rng.DOMAIN_SYNTH)
        if spec.sizes is not None:
            sizes = list(spec.sizes)
        else:
            lo, hi = spec.size_range  # type: ignore[misc]
            sizes = [lo + stream.below(hi - lo + 1) for _ in range(spec.groups_per_class)]
        anchors = _draw_anchors(stream, spec)
        # Member-anchor dissimilarity is capped at 1 - sqrt(1 - delta^2), i.e.
        # member-anchor *angle* below asin(delta).  Dissimilarity is
        # 2*sin^2(angle/2), which is not a metric: two perturbations can move a
        # cross-group pair by up to 2*sin(sum of angles / 2) < 2*delta, so this
        # cap (and not delta/2) is what keeps min-between above margin-2*delta;
        # within-group pairs stay below 2*delta^2 < 2*delta.
        cap = 1.0 - math.sqrt(1.0 - spec.within_spread**2)
        truth[cid] = []
        for anchor, size in zip(anchors, sizes):  # a row's sample id is its position
            truth[cid].append(frozenset(range(len(rows), len(rows) + size)))
            rows += [_perturb(stream, anchor, cap * stream.uniform()) for _ in range(size)]
        cids += [cid] * sum(sizes)
    # Rounded to float32 as dataset.bin stores them, so the certificate below
    # holds for the values every output format carries.
    dataset = EmbeddingDataset(np.arange(len(rows)), cids, np.asarray(rows, dtype=np.float32))

    cert = measure_separation(dataset, truth)
    if cert.max_within is not None:
        bound = 2.0 * spec.within_spread
        ok = cert.max_within == 0.0 if bound == 0.0 else cert.max_within < bound
        if not ok:
            raise MarginError(
                f"generated data violates within-group bound: {cert.max_within} vs {bound}"
            )
    if cert.min_between is not None and not (
        cert.min_between > spec.between_margin - 2.0 * spec.within_spread
    ):
        raise MarginError(
            f"generated data violates between-group bound: {cert.min_between} vs "
            f"{spec.between_margin - 2.0 * spec.within_spread}"
        )
    return dataset, truth, cert


def measure_separation(
    dataset: EmbeddingDataset, ground_truth: Mapping[int, Sequence[frozenset[int]]]
) -> SeparationCertificate:
    """Realized max within-group and min between-group (same class) dissimilarity.

    One condensed matrix per class; each pair is classed by the group labels
    of its two rows.  Rows in no group are ignored.
    """
    hi, lo = -math.inf, math.inf  # running max within, min between
    for cid in sorted(ground_truth):
        ids, X = dataset.class_arrays(cid)
        n = len(ids)
        label = np.full(n, -1)
        part = Partition.from_groups(ids, ground_truth[cid])
        label[part.order] = np.repeat(np.arange(len(part.starts) - 1), part.sizes())
        D, offs = metric.pairwise_condensed(X), metric.condensed_offsets(n)
        for i in np.flatnonzero(label >= 0):
            d, rest = D[offs[i] : offs[i] + n - 1 - i], label[i + 1 :]
            hi = float(d.max(initial=hi, where=rest == label[i]))
            lo = float(d.min(initial=lo, where=(rest >= 0) & (rest != label[i])))
    return SeparationCertificate(
        None if hi == -math.inf else hi, None if lo == math.inf else lo
    )


def ground_truth_to_json(ground_truth: Mapping[int, Sequence[frozenset[int]]]) -> str:
    doc = {
        str(cid): [sorted(group) for group in ground_truth[cid]]
        for cid in sorted(ground_truth)
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
