"""Command-line driver: load -> per class (cluster -> medoids -> reports) -> emit.

Every run computes all artifacts in memory first; ``select`` then validates
its manifest, so a refused one writes nothing.  A single writer stages each
file under a temporary name and moves the files into place only once all
are written; on any failure the staged files are removed, so an output
directory keeps the run it held before and never holds a half-finished one.
After a successful ``select`` run, the optional artifacts it did not write
are removed, so the directory holds exactly one run; ``synth`` likewise
removes the other format's dataset.  Exit status is 0 iff the manifest
validates and every artifact was written; every failure prints one
``error_code: message`` line on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import datetime
import errno
import json
import os
import sys
from pathlib import Path

from . import __version__, analysis, rng, selection, synth
from .cluster import DEFAULT_MEMORY_CAP, format_dendrogram
from .errors import ConfigError, RedundaError
from .selection import ClassResult
from .store import EmbeddingDataset, canonical_bytes, dataset_to_csv, load_dataset


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the error contract."""

    def error(self, message):
        raise ConfigError(message)


# Artifacts a select run may leave out, as glob patterns under --out.  The
# manifest files and run_metadata.json are not listed: every run writes them.
_OPTIONAL_ARTIFACTS = (
    "histogram.csv", "histogram.json", "histogram.txt",
    "dissimilarity.json", "dissimilarity.txt",
    "pairs.json", "pairs.txt", "dendrograms/class_*.txt",
)


def _remove(paths, root: Path) -> None:
    """Remove files, then each of their directories below ``root`` left empty."""
    paths = list(paths)
    for p in paths:
        try:
            p.unlink()
        except OSError:
            pass
    for d in {p.parent for p in paths} - {root}:
        try:
            d.rmdir()  # only succeeds once no other file is left in it
        except OSError:
            pass


def _emit(outdir: Path, artifacts: list[tuple[str, str | bytes]]) -> None:
    """Single writer: stage every artifact under a temporary name next to its
    target, then move each into place.  On any failure the staged files are
    removed; up to the first move, that leaves what ``outdir`` held before as
    it was.  A target that is a directory would fail its move, so it is
    refused before any."""
    outdir.mkdir(parents=True, exist_ok=True)
    staged: dict[str, Path] = {}
    try:
        for rel, payload in artifacts:
            target = outdir / rel
            if target.is_dir() and not target.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
            target.parent.mkdir(parents=True, exist_ok=True)
            staged[rel] = tmp = target.with_name(f".{target.name}.partial")
            if isinstance(payload, bytes):
                tmp.write_bytes(payload)
            else:
                tmp.write_text(payload, encoding="utf-8")
        for rel, tmp in staged.items():
            os.replace(tmp, outdir / rel)
    except BaseException:
        _remove(staged.values(), outdir)
        raise


def _remove_stale(outdir: Path, patterns, written: set[str], keep: set[Path]) -> None:
    """Remove what an earlier run left in ``outdir`` and this run did not write.

    Only files matching ``patterns`` are candidates, and never a file in
    ``keep`` (the inputs this run read).  A subdirectory this empties goes too.
    """
    _remove(
        (p for pattern in patterns for p in outdir.glob(pattern)
         if str(p.relative_to(outdir)) not in written and p.is_file()
         and p.resolve() not in keep),
        outdir,
    )


def _metadata(command: str, ds: EmbeddingDataset, extra: dict) -> str:
    doc = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": command,
        "version": __version__,
        "generator": {"name": rng.GENERATOR_NAME, "version": rng.GENERATOR_VERSION},
        "source_digest": ds.digest(),
        **extra,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _written(args, classes) -> list[str]:
    """The files a ``select`` run writes, named before any class is clustered."""
    names = ["manifest.json", "manifest.txt", "run_metadata.json"]
    if args.method == selection.METHOD_CLUSTER:
        names += ["histogram.csv", "histogram.json", "histogram.txt"] if args.histogram else []
        names += ["dissimilarity.json", "dissimilarity.txt"] if args.dissimilarity else []
        names += ["pairs.json", "pairs.txt"] if args.nearest_excluded else []
        names += [f"dendrograms/class_{c}.txt" for c in classes] if args.dump_dendrograms else []
    return names


def _report_artifacts(args, results: dict[int, ClassResult]) -> list[tuple[str, str | bytes]]:
    artifacts: list[tuple[str, str | bytes]] = []
    if args.histogram:
        hists = {cid: analysis.size_histogram(res.partition) for cid, res in results.items()}
        artifacts.append(("histogram.csv", analysis.histogram_to_csv(hists)))
        artifacts.append(("histogram.json", analysis.histogram_to_json(hists)))
        artifacts.append(("histogram.txt", analysis.histogram_to_table(hists)))
    if args.dissimilarity:
        entries = {cid: res.dissimilarity for cid, res in results.items()}
        w = args.class_mean
        artifacts.append(("dissimilarity.json", analysis.dissimilarity_to_json(entries, class_weighted=w)))
        artifacts.append(("dissimilarity.txt", analysis.dissimilarity_to_table(entries, class_weighted=w)))
    if args.nearest_excluded:
        pairs = {cid: res.pairs for cid, res in results.items()}
        artifacts.append(("pairs.json", analysis.pairs_to_json(pairs)))
        artifacts.append(("pairs.txt", analysis.pairs_to_table(pairs)))
    if args.dump_dendrograms:
        for cid, res in results.items():
            artifacts.append((f"dendrograms/class_{cid}.txt", format_dendrogram(res.dendrogram)))
    return artifacts


def _cmd_select(args) -> int:
    if args.method == selection.METHOD_RANDOM and args.seed is None:
        raise ConfigError("method uniform-random requires --seed")
    if args.method == selection.METHOD_CLUSTER and args.seed is not None:
        raise ConfigError("--seed only applies to method uniform-random")
    if not 0.0 < args.fraction <= 1.0:
        raise ConfigError(f"fraction must lie in (0, 1], got {args.fraction}")
    if args.memory_cap is not None and args.memory_cap < 0:
        raise ConfigError(f"memory cap must be >= 0 bytes, got {args.memory_cap}")
    ds = load_dataset(Path(args.input), args.format)
    out, src = Path(args.out), Path(args.input).resolve()
    for rel in _written(args, ds.classes()):  # the input is never overwritten, nor staged over
        at = (out / rel).parent.resolve() / (out / rel).name
        if src in (at, at.with_name(f".{at.name}.partial")):
            raise ConfigError(f"--input {args.input} is {rel}, which this run writes")
    results: dict[int, ClassResult] | None = None
    if args.method == selection.METHOD_CLUSTER:
        manifest, results = selection.build_cluster_subset(
            ds, args.fraction, memory_cap_bytes=args.memory_cap,
            dissimilarity=args.dissimilarity, nearest_excluded=args.nearest_excluded,
        )
    else:
        manifest = selection.build_random_subset(ds, args.fraction, args.seed)

    artifacts: list[tuple[str, str | bytes]] = [
        ("manifest.json", selection.manifest_to_json(manifest)),
        ("manifest.txt", selection.manifest_to_text(manifest)),
    ]
    if results is not None:
        artifacts += _report_artifacts(args, results)
    sizes = ds.class_sizes()
    classes = {
        str(cid): {
            "n": sizes[cid],
            "k": len(ids),
            "largest": int(results[cid].partition.sizes().max()) if results else None,
        }
        for cid, ids in sorted(manifest.retained.items())
    }
    meta = {"input": str(Path(args.input)), "fraction": manifest.retention_fraction,
            "classes": classes, "method": args.method, "seed": args.seed}
    artifacts.append(("run_metadata.json", _metadata("select", ds, meta)))

    # Exit contract: the manifest written validates against the dataset.
    selection.validate_manifest(manifest, ds)
    _emit(out, artifacts)
    _remove_stale(out, _OPTIONAL_ARTIFACTS, {rel for rel, _ in artifacts}, {src})
    for cid, c in classes.items():
        largest = "" if c["largest"] is None else f" largest={c['largest']}"
        print(f"class {cid}: n={c['n']} k={c['k']}{largest}")
    print(
        f"total: classes={len(manifest.retained)} points={len(ds)} "
        f"retained={manifest.total_retained()}"
    )
    if results is None:
        print("note: cluster reports skipped (uniform-random subsets have no clusters)")
    return 0


def _cmd_synth(args) -> int:
    sizes = None
    if args.sizes is not None:
        try:
            sizes = tuple(int(p) for p in args.sizes.split(","))
        except ValueError:
            raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    size_range = tuple(args.size_range) if args.size_range is not None else None
    spec = synth.PlantedSpec(
        classes=args.classes,
        groups_per_class=args.groups,
        dim=args.dim,
        within_spread=args.delta,
        between_margin=args.margin,
        seed=args.seed,
        sizes=sizes,
        size_range=size_range,
    )
    ds, truth, cert = synth.generate(spec)
    name = "dataset.csv" if args.format == "csv" else "dataset.bin"
    payload: str | bytes = (
        dataset_to_csv(ds) if args.format == "csv" else canonical_bytes(ds)
    )
    artifacts: list[tuple[str, str | bytes]] = [
        (name, payload),
        ("ground_truth.json", synth.ground_truth_to_json(truth)),
        (
            "run_metadata.json",
            _metadata(
                "synth",
                ds,
                {
                    "classes": spec.classes,
                    "groups_per_class": spec.groups_per_class,
                    "dim": spec.dim,
                    "within_spread": spec.within_spread,
                    "between_margin": spec.between_margin,
                    "seed": spec.seed,
                    "max_within": cert.max_within,
                    "min_between": cert.min_between,
                },
            ),
        ),
    ]
    _emit(Path(args.out), artifacts)
    _remove_stale(Path(args.out), ("dataset.bin", "dataset.csv"), {name}, set())
    for cid in sorted(truth):
        points = sum(len(g) for g in truth[cid])
        print(f"class {cid}: groups={len(truth[cid])} points={points}")
    print(f"total: classes={spec.classes} points={len(ds)} file={name}")
    return 0


def _cmd_validate(args) -> int:
    ds = load_dataset(Path(args.input), args.format)
    sizes = ds.class_sizes()
    print(
        f"ok: records={len(ds)} dim={ds.dimension} classes={len(sizes)} "
        f"digest={ds.digest()}"
    )
    for cid, n in sizes.items():
        print(f"class {cid}: n={n}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="redunda", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("select", help="build a subset manifest plus reports")
    p.add_argument("--input", required=True, help="dataset file")
    p.add_argument("--format", choices=("binary", "csv"), default=None,
                   help="dataset format (default: infer from suffix)")
    p.add_argument("--fraction", type=float, required=True,
                   help="retention fraction in (0, 1]")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--method", choices=(selection.METHOD_CLUSTER, selection.METHOD_RANDOM),
                   default=selection.METHOD_CLUSTER)
    p.add_argument("--seed", type=int, default=None,
                   help="required for (and only for) uniform-random")
    p.add_argument("--memory-cap", type=int, default=None, dest="memory_cap",
                   help="bytes of the condensed pairwise matrix allowed per "
                        f"class that needs it (default {DEFAULT_MEMORY_CAP})")
    p.add_argument("--histogram", action=argparse.BooleanOptionalAction, default=True,
                   help="emit cluster-size histogram")
    p.add_argument("--dissimilarity", action=argparse.BooleanOptionalAction, default=True,
                   help="emit average-dissimilarity report")
    p.add_argument("--nearest-excluded", action=argparse.BooleanOptionalAction,
                   default=True, help="emit nearest-excluded-neighbor report")
    p.add_argument("--dump-dendrograms", action="store_true",
                   help="write per-class merge sequences")
    p.add_argument("--class-mean", action="store_true",
                   help="overall dissimilarity averages class means instead of clusters")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("synth", help="generate a planted-group dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--groups", type=int, required=True, help="groups per class")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--delta", type=float, required=True, help="within-group spread")
    p.add_argument("--margin", type=float, required=True,
                   help="between-group anchor margin (must exceed 4*delta)")
    p.add_argument("--seed", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sizes", default=None, help="comma-separated group sizes")
    group.add_argument("--size-range", type=int, nargs=2, default=None,
                       metavar=("LO", "HI"), help="uniform group-size bounds")
    p.add_argument("--format", choices=("binary", "csv"), default="binary")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate", help="check a dataset file and print a summary")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("binary", "csv"), default=None)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:  # the one place an exception becomes its code
        code = (exc.code if isinstance(exc, RedundaError)
                else "out_of_memory" if isinstance(exc, MemoryError)
                else "io_error" if isinstance(exc, OSError)
                else "internal_error")
        message = " ".join(str(exc).split()) or exc.__class__.__name__
        print(f"{code}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
