"""Subset selection in one pass per class (read and normalize it once, cluster,
keep each cluster's medoid, build the reports asked for), plus the random baseline."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
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
    """One clustered class: its partition, each cluster's medoid sample id (in
    partition order), its dendrogram and the report entries asked for (None if
    not): ``dissimilarity``, the cluster means ``avg_dissimilarity`` returns,
    and ``pairs``, the triples ``nearest_excluded`` returns."""

    partition: Partition
    reps: tuple[int, ...]
    dendrogram: Dendrogram
    dissimilarity: tuple[float, ...] | None
    pairs: tuple[tuple[int, int, float], ...] | None


# Elements per gathered array in ``select_representative``'s pass, which reads
# a size group in chunks of this many, or one cluster when s * d is larger.  One
# group can hold most of a class, so one gather of it could take as much as X and U.
_CHUNK_ELEMS = 1 << 16


def _medoid(ids: np.ndarray, X: np.ndarray, U: np.ndarray) -> int:
    """Medoid of one cluster under cosine dissimilarity to the arithmetic-mean
    centroid: the exact path that defines ``select_representative``.

    ``ids`` are the cluster's sample ids, ascending; ``X`` and ``U`` hold
    their rows and unit rows in the same order, and the distances come from
    one product over ``U`` as given, with no second copy.  The centroid is
    the mean of the rows widened to float64.  Ties go to the smallest
    sample_id.
    """
    if len(ids) == 0:
        raise InvalidArgumentError("cluster must be non-empty")
    if len(ids) == 1:
        return int(ids[0])
    centroid = X.astype(np.float64, copy=False).mean(axis=0)
    norm = math.sqrt(float(centroid @ centroid))
    if norm < metric.MIN_NORM:
        shown = ", ".join(str(i) for i in ids[:8])
        more = ", ..." if len(ids) > 8 else ""
        raise DegenerateClusterError(
            f"cluster {{{shown}{more}}} has centroid norm below {metric.MIN_NORM:g}"
        )
    twins = np.flatnonzero((X == centroid).all(axis=1))
    d = metric.one_to_many(centroid, np.ascontiguousarray(U), twins)
    best = np.flatnonzero(d == d.min())
    return int(ids[best].min())


def select_representative(
    ids: np.ndarray, X: np.ndarray, U: np.ndarray, order: np.ndarray, starts: np.ndarray
) -> tuple[int, ...]:
    """Medoid of every cluster of one class, as sample ids in cluster order.

    ``ids``, ``X`` and ``U`` are the class's sample ids, rows and unit rows;
    cluster i's rows are ``order[starts[i]:starts[i + 1]]``, ascending by
    sample id (a ``Partition``'s).  The medoid is the member of least cosine
    dissimilarity to the cluster's arithmetic-mean centroid, ties to the
    smallest sample_id: exactly the ids the per-cluster ``_medoid`` picks.

    A singleton is its own medoid.  Clusters of one size s >= 2 are read
    together: one stacked mean of the widened rows gives every centroid, with
    the bits of ``_medoid``'s per-cluster mean (each is the same sequence of
    row additions and one division), and one einsum the value ``b = 1 - <u, c/|c|>``
    of every member.  A cluster is certified when its two smallest ``b``
    differ by more than ``2 * eps``; its argmin is then the exact path's
    medoid.  Every other cluster runs ``_medoid`` in partition order; as no
    certified cluster can make ``_medoid`` raise, the first error
    (``DegenerateClusterError``, an empty cluster) names the first cluster
    in partition order that ``_medoid`` refuses.

    Why ``eps = 4 (d + 4) u`` (u = 2**-53) bounds ``|b - e|``, where ``e``
    is the exact path's ``1 - g`` before its clip and twin rule.  Both take
    the same centroid bits c and unit rows; let t be the value in exact
    arithmetic.  A length-d sum of products is within ``d u`` (to first
    order) of its exact value in any summation order.  So each squared norm
    is within ``d u`` relatively, the norm within ``(d/2 + 1) u`` and each
    component of ``c / |c|`` within ``(d/2 + 2) u``, which moves ``g`` by at
    most that much (Cauchy-Schwarz, unit rows).  The product adds ``d u``
    and ``1 - g`` one rounding: each evaluation is within ``(1.5 d + 4) u``
    of t, and the two within ``(3 d + 8) u < eps`` of each other.  With the
    gap above ``2 eps``, e at the certified member is below every other e.
    The clip and the twin rule (a raw row equal to c reads 0) move only
    values within ``eps`` of 0 or 2; two such values lie within ``2 eps`` of
    each other in ``b``, so a cluster where they could tie is not certified.
    A certified centroid also has ``2 MIN_NORM <= |c| <= 2**511``: the exact
    norm then is at least ``MIN_NORM`` and its square finite, so ``_medoid``
    would raise on none of them.
    """
    sizes, first = np.diff(starts), starts[:-1]
    best = np.full(len(sizes), -1, dtype=np.intp)  # row of each medoid found here
    best[sizes == 1] = order[first[sizes == 1]]
    d = X.shape[1]
    eps = 4.0 * (d + 4) * 2.0**-53
    for s in np.unique(sizes[sizes >= 2]).tolist():
        group = np.flatnonzero(sizes == s)
        per = max(1, _CHUNK_ELEMS // (s * d))
        for lo in range(0, len(group), per):
            at = group[lo : lo + per]
            R = order[first[at][:, None] + np.arange(s)]
            with np.errstate(all="ignore"):  # refused below, and again by ``_medoid``
                C = X[R].astype(np.float64, copy=False).mean(axis=1)
                norm = np.sqrt(np.einsum("ij,ij->i", C, C))
                b = 1.0 - np.einsum("csd,cd->cs", U[R], C / norm[:, None])
            two = np.partition(b, 1, axis=1)
            ok = (two[:, 1] - two[:, 0] > 2.0 * eps) & (norm >= 2.0 * metric.MIN_NORM)
            ok &= norm <= 2.0**511
            best[at[ok]] = R[ok, np.argmin(b[ok], axis=1)]
    for i in np.flatnonzero(best < 0).tolist():
        rows = order[starts[i] : starts[i + 1]]
        best[i] = rows[ids[rows] == _medoid(ids[rows], X[rows], U[rows])][0]
    return tuple(ids[best].tolist())


def _cluster_class(
    ds: EmbeddingDataset, class_id: int, fraction: float, memory_cap_bytes: int | None,
    dissimilarity: bool, nearest_excluded: bool,
) -> ClassResult:
    """Read, normalize and cluster one class once, then take every medoid in
    one ``select_representative`` pass and build the report entries asked for
    from the same rows and unit rows.  The rows stay in the dataset's
    precision, and ``U`` is their only float64 copy."""
    ids, X = ds.class_arrays(class_id)
    k = per_class_k(len(ids), fraction)
    U = metric.unit_rows(X)
    dendro, part = agglomerate_fast(X, k, sample_ids=ids, memory_cap_bytes=memory_cap_bytes, U=U)
    reps = select_representative(ids, X, U, part.order, part.starts)
    entry = analysis.avg_dissimilarity(part, reps, X, U) if dissimilarity else None
    pairs = analysis.nearest_excluded(part, reps, X, U) if nearest_excluded else None
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
    Classes are clustered one after another; an error with a code of its own names its class.
    """
    by_class: dict[int, ClassResult] = {}
    for cid in _classes(ds, fraction):
        try:
            by_class[cid] = _cluster_class(
                ds, cid, fraction, memory_cap_bytes, dissimilarity, nearest_excluded
            )
        except RedundaError as exc:  # named, as the same type
            raise type(exc)(f"class {cid}: {exc}") from exc
        except (MemoryError, OSError) as exc:  # as the builtin: numpy's MemoryError takes (shape, dtype)
            kind = MemoryError if isinstance(exc, MemoryError) else OSError
            raise kind(f"class {cid}: {exc}") from exc
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


def manifest_to_text(manifest: SubsetManifest) -> str:
    lines = [
        f"{cid} {sid}"
        for cid, ids in sorted(manifest.retained.items())
        for sid in ids
    ]
    return "\n".join(lines) + ("\n" if lines else "")
