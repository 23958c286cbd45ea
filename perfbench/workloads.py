"""The three benchmark workloads: inputs built from a seed, the `select`
arguments each runs with, and the checks every run's outputs must pass.

The program only ever sees the generated files.  Unit-normal inputs are
written in redunda's binary format by this module (not by redunda itself), so
a change to the program's writer cannot change what is measured.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REPORTS = ("manifest.json", "manifest.txt", "histogram.csv", "histogram.json", "histogram.txt")
ALL_REPORTS = REPORTS + ("dissimilarity.json", "dissimilarity.txt", "pairs.json", "pairs.txt")


@dataclass
class Prepared:
    """One workload's input for one seed, plus what its outputs must satisfy."""

    workload: str
    seed: int
    input_path: Path
    select_args: list[str]
    class_ids: dict[int, range]  # class -> its (positional, class-major) sample ids
    fraction: float
    artifacts: tuple[str, ...]  # deterministic artifacts a run must write
    truth: dict[int, list[list[int]]] | None = None  # planted groups, if any
    synth_s: float | None = None  # wall of the `redunda synth` call that built the input
    scipy_rows: int | None = None  # rows of the scipy linkage reference, if timed

    @property
    def points(self) -> int:
        return sum(len(r) for r in self.class_ids.values())

    def k(self, cid: int) -> int:
        """Per-class budget, round-half-up of fraction * n clamped to [1, n]."""
        n = len(self.class_ids[cid])
        return max(1, min(n, math.floor(self.fraction * n + 0.5)))


Prepare = Callable[[int, Path, Callable], Prepared]  # (seed, workdir, run_child)


def _write_unit_normal(path: Path, seed: int, classes: int, n: int, dim: int) -> None:
    """Unit-normal rows, class-major positional ids, redunda binary format v1."""
    rs = np.random.default_rng(seed)
    record = np.dtype([("cid", "<u4"), ("vec", "<f4", (dim,))])
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIQI", b"REDE", 1, 0, classes * n, dim))
        for cid in range(classes):
            X = rs.normal(size=(n, dim))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            body = np.empty(n, dtype=record)
            body["cid"] = cid
            body["vec"] = X
            fh.write(body.tobytes())


def unit_normal(name: str, classes: int, n: int, dim: int, scipy_ref: bool = False) -> Prepare:
    def prepare(seed: int, workdir: Path, run_child: Callable) -> Prepared:
        path = workdir / f"{name}-{seed}.bin"
        _write_unit_normal(path, seed, classes, n, dim)
        return Prepared(
            workload=name,
            seed=seed,
            input_path=path,
            select_args=["--fraction", "0.9"],
            class_ids={c: range(c * n, (c + 1) * n) for c in range(classes)},
            fraction=0.9,
            artifacts=ALL_REPORTS,
            scipy_rows=n if scipy_ref else None,
        )

    return prepare


def planted(name: str, classes: int, groups: int, dim: int,
            delta: float, margin: float) -> Prepare:
    sizes = [1 + i % 16 for i in range(groups)]
    n = sum(sizes)
    fraction = groups / n  # k == group count in every class

    def prepare(seed: int, workdir: Path, run_child: Callable) -> Prepared:
        out = workdir / f"{name}-{seed}"
        argv = ["synth", "--classes", str(classes), "--groups", str(groups),
                "--dim", str(dim), "--delta", repr(delta), "--margin", repr(margin),
                "--seed", str(seed), "--sizes", ",".join(map(str, sizes)),
                "--out", str(out)]
        res = run_child(argv)
        if not res.ok:
            raise RuntimeError(f"redunda synth failed: rc={res.rc} {res.stderr.strip()}")
        doc = json.loads((out / "ground_truth.json").read_text(encoding="utf-8"))
        truth = {int(c): [sorted(g) for g in groups_] for c, groups_ in doc.items()}
        return Prepared(
            workload=name,
            seed=seed,
            input_path=out / "dataset.bin",
            select_args=["--fraction", repr(fraction), "--no-dissimilarity",
                         "--no-nearest-excluded"],
            class_ids={c: range(c * n, (c + 1) * n) for c in range(classes)},
            fraction=fraction,
            artifacts=REPORTS,
            truth=truth,
            synth_s=res.wall_s,
        )

    return prepare


# Sizes follow the paper's per-class shapes; README.md says why each workload
# is here and which layers it should (and should not) move.
WORKLOADS: dict[str, Prepare] = {
    "cifar-shaped": unit_normal("cifar-shaped", classes=1, n=5000, dim=64, scipy_ref=True),
    "imagenet-shaped": unit_normal("imagenet-shaped", classes=1, n=1300, dim=2048),
    "planted-groups": planted("planted-groups", classes=4, groups=400, dim=32,
                              delta=0.02, margin=0.5),
}


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means the run passed.

def _load_json(outdir: Path, name: str, problems: list[str]):
    try:
        return json.loads((outdir / name).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{name}: unreadable ({exc})")
        return None


def check_outputs(prep: Prepared, outdir: Path) -> list[str]:
    """Structural checks that hold for any correct run of this workload."""
    problems: list[str] = []
    classes = sorted(prep.class_ids)
    manifest = _load_json(outdir, "manifest.json", problems)
    retained: dict[int, list[int]] = {}
    if manifest is not None:
        try:
            retained = {int(c): list(ids) for c, ids in manifest["retained"].items()}
        except (KeyError, TypeError, ValueError, AttributeError):
            problems.append("manifest.json: no retained map")
        if sorted(retained) != classes:
            problems.append(f"manifest.json: classes {sorted(retained)} != {classes}")
        for cid in classes:
            ids = retained.get(cid, [])
            members = prep.class_ids[cid]
            if len(ids) != prep.k(cid):
                problems.append(f"class {cid}: retained {len(ids)}, expected {prep.k(cid)}")
            if ids != sorted(set(ids)) or any(i not in members for i in ids):
                problems.append(f"class {cid}: retained ids not ascending members of the class")

    hist = _load_json(outdir, "histogram.json", problems)
    multi: dict[int, int] = {}  # clusters of size >= 2, per class
    if hist is not None:
        for cid in classes:
            counts = {int(s): int(c) for s, c in hist.get(str(cid), {}).items()}
            if sum(s * c for s, c in counts.items()) != len(prep.class_ids[cid]):
                problems.append(f"histogram class {cid}: sizes do not cover the class")
            if sum(counts.values()) != prep.k(cid):
                problems.append(f"histogram class {cid}: {sum(counts.values())} clusters != k")
            multi[cid] = sum(c for s, c in counts.items() if s >= 2)

    if "pairs.json" in prep.artifacts:
        pairs = _load_json(outdir, "pairs.json", problems)
        for cid in classes if pairs is not None else ():
            rows = pairs.get(str(cid), [])
            kept = set(retained.get(cid, ()))
            if len(rows) != multi.get(cid, -1):
                problems.append(f"pairs class {cid}: {len(rows)} pairs != clusters of size >= 2")
            for p in rows:
                if p["retained_id"] not in kept or p["neighbor_id"] not in prep.class_ids[cid] \
                        or not 0.0 <= p["dissimilarity"] <= 2.0:
                    problems.append(f"pairs class {cid}: bad pair {p}")
                    break
    if "dissimilarity.json" in prep.artifacts:
        dis = _load_json(outdir, "dissimilarity.json", problems)
        if dis is not None:
            counted = {int(c): n for c, n in dis.get("groups_counted", {}).items()}
            if counted != {c: m for c, m in multi.items() if m}:
                problems.append("dissimilarity.json: groups_counted != clusters of size >= 2")
            overall = dis.get("overall")
            if overall is not None and not 0.0 <= overall <= 2.0:
                problems.append(f"dissimilarity.json: overall {overall} outside [0, 2]")

    if prep.truth is not None:
        problems += _check_planted(prep.truth, retained, hist)
    return problems


def _check_planted(truth, retained, hist) -> list[str]:
    """Exact recovery: planted size counts, one retained id per planted group."""
    problems = []
    for cid, groups in truth.items():
        expect: dict[str, int] = {}
        for g in groups:
            expect[str(len(g))] = expect.get(str(len(g)), 0) + 1
        if hist is not None and hist.get(str(cid)) != expect:
            problems.append(f"class {cid}: histogram differs from the planted size counts")
        kept = set(retained.get(cid, ()))
        bad = [g[0] for g in groups if len(kept.intersection(g)) != 1]
        if bad:
            problems.append(
                f"class {cid}: {len(bad)} planted groups do not hold exactly one "
                f"retained id (first: group of {bad[0]})"
            )
    return problems
