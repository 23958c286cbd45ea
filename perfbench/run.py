"""redunda benchmark: one workload, one seed, closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's input from the seed, then runs ``redunda select`` on it
again and again for S seconds, each run in a fresh child process that calls
``redunda.cli.main`` in-process (see child.py).  Every run writes into a
fresh ``--out`` and its outputs are checked: exit code 0, empty stderr, each
deterministic artifact's sha256 equal to the pinned reference
(references.json), and the workload's own checks (workloads.py).

--trace 0 prints the end-to-end metrics (medians over the runs).  --trace 1
alternates untraced runs with traced ones (spans.py) and prints the
per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Everything the benchmark
writes goes under .perfbench_work/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import spans
from workloads import WORKLOADS, Prepared, check_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"

E2E_UNITS = {"wall_s": "s", "points_per_s": "points/s", "setup_s": "s", "peak_rss_mb": "MB"}
RUN_METRICS = {"synth.generate_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s",
               "trace.spans": "count"}
LAYER_UNITS = {**{m: u for m, (u, _) in spans.LAYER_METRICS.items()}, **RUN_METRICS}

# BLAS threads are pinned so runs on a shared machine do not contend with
# themselves; the setting is recorded in the environment block.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5  # import-only children per run, on top of one per measured run
CHILD_TIMEOUT_S = 150


@dataclass
class ChildResult:
    rc: int
    stderr: str
    data: dict

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.stderr and "rc" in self.data

    @property
    def wall_s(self) -> float | None:
        return self.data.get("wall_s")


@dataclass
class Sample:
    index: int
    traced: bool
    data: dict
    digests: dict[str, str]
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def run_child(mode: list[str]) -> ChildResult:
    """Start child.py, wait for it, and read back what it measured."""
    result = WORK / "tmp" / "child.json"
    result.unlink(missing_ok=True)
    t0 = time.monotonic_ns()
    cmd = [sys.executable, str(HERE / "child.py"), str(t0), str(result), *mode]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return ChildResult(-1, f"timed out after {CHILD_TIMEOUT_S} s", {})
    try:
        data = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = {}
    return ChildResult(proc.returncode, proc.stderr, data)


def run_cli(argv: list[str], traced: bool = False) -> ChildResult:
    return run_child(["cli", *(["--trace"] if traced else []), "--", *argv])


def artifact_digests(outdir: Path) -> dict[str, str]:
    """sha256 of every file a run wrote, except the timestamped run_metadata.json."""
    return {
        p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.rglob("*"))
        if p.is_file() and p.name != "run_metadata.json"
    }


def run_sample(prep: Prepared, index: int, traced: bool, reference: dict | None,
               tamper: Callable[[Path], None] | None = None) -> Sample:
    outdir = WORK / "out" / f"{prep.workload}-{prep.seed}-{index}"
    shutil.rmtree(outdir, ignore_errors=True)  # every run starts from a missing --out
    res = run_cli(["select", "--input", str(prep.input_path), *prep.select_args,
                   "--out", str(outdir)], traced)
    problems = []
    if res.rc != 0:
        problems.append(f"exit code {res.rc}")
    if res.stderr:
        problems.append(f"stderr: {res.stderr.strip().splitlines()[-1]}")
    if tamper is not None:
        tamper(outdir)
    digests = artifact_digests(outdir) if outdir.is_dir() else {}
    if sorted(digests) != sorted(prep.artifacts):
        problems.append(f"artifacts {sorted(digests)} != {sorted(prep.artifacts)}")
    if reference is not None:
        problems += [f"{name}: sha256 differs from the reference"
                     for name, sha in sorted(reference.items()) if digests.get(name, sha) != sha]
    if res.rc == 0:
        try:
            problems += check_outputs(prep, outdir)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problems.append(f"malformed output: {exc!r}")
    shutil.rmtree(outdir, ignore_errors=True)
    return Sample(index, traced, res.data, digests, problems)


# ---------------------------------------------------------------------------
# Environment and pinned references

def _openblas_runtime() -> dict:
    """Config and kernel of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    if not libs:
        return {}
    handle = ctypes.CDLL(libs[0])
    out = {}
    for key, names in (("config", ("scipy_openblas_get_config64_", "openblas_get_config")),
                       ("core", ("scipy_openblas_get_corename64_", "openblas_get_corename"))):
        fn = next((getattr(handle, n) for n in names if hasattr(handle, n)), None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            out[key] = fn().decode()
    return out


def environment() -> dict:
    config = np.__config__.CONFIG
    blas = config.get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_simd": config.get("SIMD Extensions", {}).get("found", []),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **_openblas_runtime()},
        "blas_threads": {var: "1" for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "src_lines": src_lines,
    }


def fingerprint(env: dict) -> str:
    """Digests are byte-exact only on one numpy build, SIMD set and BLAS kernel."""
    blas = env["blas"]
    return (f"numpy {env['numpy']} {'+'.join(env['numpy_simd'])} | "
            f"{blas.get('config') or blas.get('version')}")


def load_references(env: dict) -> dict:
    try:
        doc = json.loads(REFERENCES.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    return doc.get(fingerprint(env), {})


# ---------------------------------------------------------------------------
# One benchmark run

def _median(values):
    return statistics.median(values) if values else None


def measure(prep: Prepared, seconds: float, trace: bool, reference: dict | None,
            tamper: Callable[[Path], None] | None = None) -> tuple[list[Sample], list[float]]:
    """Setup probes, then runs until ``seconds`` have passed (traced: alternating)."""
    run_child(["probe"])  # warm-up: bytecode caches and the page cache
    setup = [run_child(["probe"]).data.get("setup_s") for _ in range(SETUP_PROBES)]
    samples: list[Sample] = []
    start = time.monotonic()
    while not samples or time.monotonic() - start < seconds or (trace and len(samples) < 2):
        traced = trace and len(samples) % 2 == 1
        sample = run_sample(prep, len(samples), traced, reference, tamper)
        if reference is None and not sample.problems:
            reference = sample.digests  # unpinned seed: later runs must agree
        samples.append(sample)
    setup += [s.data.get("setup_s") for s in samples]
    return samples, [s for s in setup if s is not None]


def failed_ratio(samples: list[Sample]) -> float:
    return sum(bool(s.problems) for s in samples) / len(samples)


def end_to_end(prep: Prepared, samples: list[Sample], setup: list[float]) -> dict:
    timed = [s.data for s in samples if not s.traced and "wall_s" in s.data]
    return {
        "wall_s": _median([d["wall_s"] for d in timed]),
        "points_per_s": _median([prep.points / d["wall_s"] for d in timed]),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([d["maxrss_kb"] / 1024 for d in timed]),
    }


def per_layer(prep: Prepared, samples: list[Sample]) -> tuple[dict, list[str]]:
    untraced = [s.data["wall_s"] for s in samples if not s.traced and "wall_s" in s.data]
    traced = [s.data for s in samples if s.traced and "spans" in s.data]
    per_run, missing = [], set()
    for d in traced:
        values, dropped = spans.layer_metrics(d["spans"], d.get("missing", []), d["wall_s"],
                                              prep.points)
        per_run.append(values)
        missing.update(dropped)
    metrics = {m: _median([v[m] for v in per_run if m in v])
               for m in spans.LAYER_METRICS if m not in missing}
    trace_wall = _median([d["wall_s"] for d in traced])
    metrics.update({
        "synth.generate_s": prep.synth_s or 0.0,
        "trace.wall_s": trace_wall,
        "trace.overhead_s": None if trace_wall is None or not untraced
        else trace_wall - _median(untraced),
        "trace.spans": _median([float(len(d["spans"])) for d in traced]),
    })
    missing.update(m for m, v in metrics.items() if v is None)
    return {m: v for m, v in metrics.items() if m not in missing}, sorted(missing)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "redunda" / "cli.py").is_file():
        print(f"perfbench: no redunda sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    inputs = WORK / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir()
    env = environment()
    try:
        prep = WORKLOADS[args.workload](args.seed, inputs, run_cli)
    except RuntimeError as exc:
        print(f"perfbench: building the input failed: {exc}", file=sys.stderr)
        return 1
    reference = load_references(env).get(prep.workload, {}).get(str(prep.seed))
    samples, setup = measure(prep, args.seconds, bool(args.trace), reference)

    failed = [s for s in samples if s.problems]
    for s in failed:
        print(f"perfbench: run {s.index} failed: {'; '.join(s.problems)}", file=sys.stderr)
    if args.trace:
        metrics, missing = per_layer(prep, samples)
        units = LAYER_UNITS
        for m in missing:
            print(f"perfbench: warning: {m} is missing (its wrap point is gone)",
                  file=sys.stderr)
    else:
        metrics, missing, units = end_to_end(prep, samples, setup), [], E2E_UNITS
    if any(v is None for v in metrics.values()):
        print("perfbench: no run produced timings", file=sys.stderr)
        return 1

    info = {
        "workload": prep.workload,
        "seed": prep.seed,
        "trace": args.trace,
        "points": prep.points,
        "runs": len(samples),
        "traced_runs": sum(s.traced for s in samples),
        "setup_samples": len(setup),
        "failed_ratio": failed_ratio(samples),
        "reference": "pinned" if reference is not None else
        "unpinned: no digests for this seed and BLAS; later runs must match the first",
        "missing": missing,
        "environment": env,
    }
    if args.trace:
        if prep.scipy_rows is not None:
            ref = run_child(["scipy", str(prep.input_path), str(prep.scipy_rows)])
            ref = ref.data.get("scipy_s")
            info["ref.scipy_linkage_s"] = ref if ref is not None else "skipped: scipy absent"
    _write_results(args, info, samples)

    print(f"perfbench {prep.workload} seed={prep.seed} trace={args.trace}: "
          f"{len(samples)} runs, {len(failed)} failed, {prep.points} points")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    print(f"  {'failed_ratio':34s} {info['failed_ratio']:>16.6g} ratio "
          f"({len(failed)}/{len(samples)})")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


def _write_results(args, info: dict, samples: list[Sample]) -> None:
    """Per-run record and the traced runs' spans, under .perfbench_work/results/."""
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs = [{"run": s.index, "traced": s.traced, "problems": s.problems, "digests": s.digests,
             **{k: v for k, v in s.data.items() if k != "spans"}} for s in samples]
    (out / f"{stem}.json").write_text(json.dumps({"info": info, "runs": runs}, indent=1))
    if args.trace:
        traced = [{"run": s.index, "spans": s.data.get("spans", [])}
                  for s in samples if s.traced]
        (out / f"{stem}-spans.json").write_text(json.dumps(traced))


if __name__ == "__main__":
    sys.exit(main())
