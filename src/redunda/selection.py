"""Subset selection in one pass per class (read and normalize it once, cluster,
keep each cluster's medoid, build the reports asked for), plus the random baseline."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import analysis, metric, rng
from .cluster import Dendrogram, Partition, agglomerate_fast
from .errors import DegenerateClusterError, InvalidArgumentError, RedundaError, ValidationError
from .store import EmbeddingDataset

METHOD_CLUSTER = "cluster-medoid"
METHOD_RANDOM = "uniform-random"


@dataclass(frozen=True)
class SubsetManifest:
    """Which sample_ids survive, per class, plus provenance of the run."""

    method: str
    retention_fraction: float
    seed: int | None
    source_digest: str
    retained: Mapping[int, tuple[int, ...]]

    def total_retained(self) -> int:
        return sum(len(v) for v in self.retained.values())


def per_class_k(class_size: int, fraction: float) -> int:
    """Per-class budget: round-half-up of fraction * size, clamped to [1, size]."""
    if class_size < 1:
        raise InvalidArgumentError(f"class_size must be positive, got {class_size}")
    if not 0.0 < fraction <= 1.0:
        raise InvalidArgumentError(f"fraction must lie in (0, 1], got {fraction}")
    return max(1, min(class_size, math.floor(fraction * class_size + 0.5)))


@dataclass(frozen=True)
class ClassResult:
    """One clustered class: its partition, the medoid of each cluster (aligned
    with ``partition.clusters``), its dendrogram and the report entries asked
    for (None if not; ``dissimilarity`` also when no cluster has two members)."""

    partition: Partition
    reps: tuple[int, ...]
    dendrogram: Dendrogram
    dissimilarity: analysis.ClassDissimilarity | None
    pairs: tuple[analysis.NearestExcludedPair, ...] | None


def select_representative(ids: np.ndarray, X: np.ndarray, U: np.ndarray) -> int:
    """Medoid under cosine dissimilarity to the arithmetic-mean centroid.

    ``ids`` are the cluster's sample ids, ascending; ``X`` and ``U`` hold
    their rows and unit rows in the same order, and the distances come from
    one product over ``U`` as given, with no second copy.  Ties go to the
    smallest sample_id.
    """
    if len(ids) == 0:
        raise InvalidArgumentError("cluster must be non-empty")
    if len(ids) == 1:
        return int(ids[0])
    centroid = X.mean(axis=0)
    norm = math.sqrt(float(centroid @ centroid))
    if norm < metric.MIN_NORM:
        shown = ", ".join(str(i) for i in ids[:8])
        more = ", ..." if len(ids) > 8 else ""
        raise DegenerateClusterError(
            f"cluster {{{shown}{more}}} has centroid norm below {metric.MIN_NORM:g}"
        )
    d = metric.one_to_many(centroid, np.ascontiguousarray(U), X, np.arange(len(ids)))
    return int(ids[metric.first_min(d, ids)])


def _cluster_class(
    ds: EmbeddingDataset, class_id: int, fraction: float, memory_cap_bytes: int | None,
    dissimilarity: bool, nearest_excluded: bool,
) -> ClassResult:
    ids, X = ds.class_arrays(class_id)
    k = per_class_k(len(ids), fraction)
    U = metric.unit_rows(X)
    dendro, part = agglomerate_fast(
        X, k, sample_ids=ids, class_id=class_id, memory_cap_bytes=memory_cap_bytes, U=U
    )
    member_rows = part.member_rows(ids)
    reps = tuple(select_representative(ids[rows], X[rows], U[rows]) for rows in member_rows)
    entry = pairs = None
    if dissimilarity:
        entry = analysis.avg_dissimilarity(part, reps, ids, X, U, member_rows)
    if nearest_excluded:
        pairs = tuple(analysis.nearest_excluded(part, reps, ids, X, U, member_rows))
    return ClassResult(part, reps, dendro, entry, pairs)


def _classes(ds: EmbeddingDataset, fraction: float) -> list[int]:
    """Classes for either subset method; refuses a fraction outside (0, 1] and an empty dataset."""
    if not 0.0 < fraction <= 1.0:
        raise InvalidArgumentError(f"fraction must lie in (0, 1], got {fraction}")
    if not len(ds):
        raise InvalidArgumentError("dataset has no records")
    return ds.classes()


def build_cluster_subset(
    ds: EmbeddingDataset,
    fraction: float,
    *,
    memory_cap_bytes: int | None = None,
    dissimilarity: bool = False,
    nearest_excluded: bool = False,
) -> tuple[SubsetManifest, dict[int, ClassResult]]:
    """Cluster every class at its per-class k and keep one medoid per cluster.

    Returns the manifest and one ``ClassResult`` per class, keyed by class_id
    in ascending order, with the report entries the two switches ask for.
    Classes are clustered one after another; an error is tagged with its class.
    """
    by_class: dict[int, ClassResult] = {}
    for cid in _classes(ds, fraction):
        try:
            by_class[cid] = _cluster_class(
                ds, cid, fraction, memory_cap_bytes, dissimilarity, nearest_excluded
            )
        except Exception as exc:  # tagged with its class, as the same error type
            msg = f"class {cid}: {exc}"
            raise (type(exc)(msg) if isinstance(exc, RedundaError) else RedundaError(msg)) from exc
    retained = {cid: tuple(sorted(res.reps)) for cid, res in by_class.items()}
    manifest = SubsetManifest(METHOD_CLUSTER, fraction, None, ds.digest(), retained)
    return manifest, by_class


def build_random_subset(ds: EmbeddingDataset, fraction: float, seed: int) -> SubsetManifest:
    """Stratified uniform baseline: per-class draws without replacement.

    Each class uses its own substream of the counter-based generator, so the
    draw for a class depends only on (seed, class_id) and the class's file
    order -- not on other classes.
    """
    retained: dict[int, tuple[int, ...]] = {}
    for cid in _classes(ds, fraction):
        ids, _ = ds.class_arrays(cid)
        k = per_class_k(len(ids), fraction)
        stream = rng.class_stream(seed, cid, rng.DOMAIN_SAMPLING)
        picks = stream.sample_without_replacement(len(ids), k)
        retained[cid] = tuple(sorted(int(ids[i]) for i in picks))
    return SubsetManifest(METHOD_RANDOM, fraction, seed, ds.digest(), retained)


def validate_manifest(manifest: SubsetManifest, ds: EmbeddingDataset) -> None:
    """Check manifest invariants against its source dataset."""
    if manifest.method not in (METHOD_CLUSTER, METHOD_RANDOM):
        raise ValidationError(f"unknown method {manifest.method!r}")
    if not 0.0 < manifest.retention_fraction <= 1.0:
        raise ValidationError(f"fraction out of range: {manifest.retention_fraction}")
    digest = ds.digest()
    if manifest.source_digest != digest:
        raise ValidationError(
            f"manifest digest {manifest.source_digest[:12]}... does not match dataset {digest[:12]}..."
        )
    sizes = ds.class_sizes()
    if sorted(manifest.retained) != sorted(sizes):
        raise ValidationError("manifest classes do not match dataset classes")
    for cid, ids in manifest.retained.items():
        expect = per_class_k(sizes[cid], manifest.retention_fraction)
        if len(ids) != expect:
            raise ValidationError(
                f"class {cid}: retained {len(ids)} samples, expected {expect}"
            )
        if len(set(ids)) != len(ids):
            raise ValidationError(f"class {cid}: duplicate retained sample_id")
        if list(ids) != sorted(ids):
            raise ValidationError(f"class {cid}: retained ids not ascending")
        class_ids = set(ds.class_arrays(cid)[0].tolist())
        missing = [sid for sid in ids if sid not in class_ids]
        if missing:
            raise ValidationError(
                f"class {cid}: sample {missing[0]} not in that class of the dataset"
            )


def manifest_to_json(manifest: SubsetManifest) -> str:
    doc = {
        "method": manifest.method,
        "fraction": manifest.retention_fraction,
        "seed": manifest.seed,
        "source_digest": manifest.source_digest,
        "retained": {str(cid): list(ids) for cid, ids in sorted(manifest.retained.items())},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs):
    if len({k for k, _ in pairs}) != len(pairs):
        raise ValueError("a JSON object repeats a key")
    return dict(pairs)


def read_manifest_json(path) -> SubsetManifest:
    """Parse ``manifest_to_json`` output; refuse any other form (ValidationError)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
        raw, seed, fraction = doc["retained"], doc["seed"], doc["fraction"]
        if not isinstance(raw, dict) or not all(
            str(int(cid)) == cid and isinstance(ids, list) and all(type(s) is int for s in ids)
            for cid, ids in raw.items()
        ):
            raise TypeError('"retained" must map decimal class ids to lists of integer sample ids')
        if not (seed is None or type(seed) is int) or type(fraction) not in (int, float):
            raise TypeError('"seed" must be an integer or null and "fraction" a number')
        return SubsetManifest(
            method=doc["method"],
            retention_fraction=float(fraction),
            seed=seed,
            source_digest=str(doc["source_digest"]),
            retained={int(cid): tuple(ids) for cid, ids in raw.items()},
        )
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ValidationError(f"bad manifest file {path}: {exc}") from exc


def manifest_to_text(manifest: SubsetManifest) -> str:
    lines = [
        f"{cid} {sid}"
        for cid, ids in sorted(manifest.retained.items())
        for sid in ids
    ]
    return "\n".join(lines) + ("\n" if lines else "")
