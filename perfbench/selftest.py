"""Self-test of the benchmark at toy size (a few seconds).

    python3 perfbench/selftest.py

Checks that
  1. every metric in BENCHMARK.json is printed by name with its unit, for both
     --trace 0 and --trace 1, plus failed_ratio and the environment block;
  2. a deliberately corrupted artifact marks the run failed (failed_ratio > 0);
  3. a wrap point that no longer exists is reported missing, not raised.
Prints one PASS/FAIL line per check and exits 1 if any fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run
import spans
from workloads import WORKLOADS, planted, unit_normal

TOY = {
    "toy-unit": unit_normal("toy-unit", classes=2, n=60, dim=8, scipy_ref=True),
    "toy-planted": planted("toy-planted", classes=2, groups=6, dim=8, delta=0.02, margin=0.5),
}


def _main_output(workload: str, trace: int) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)])
    assert rc == 0, f"run.main exited {rc}"
    return buf.getvalue().splitlines()


def check_metrics_printed() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in TOY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = _main_output(workload, trace)
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}/{trace}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{workload}/{trace}: a clean run was marked failed")
            printed = result["metrics"]
            for m in spec[key]:
                got = printed.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload}/{trace}: {m['name']} [{m['unit']}] got {got}")
                elif not any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                             for line in lines):
                    problems.append(f"{workload}/{trace}: {m['name']} not in the summary")
            extra = set(printed) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{workload}/{trace}: undeclared metrics {sorted(extra)}")
            if not any(line.split()[:1] == ["failed_ratio"] for line in lines):
                problems.append(f"{workload}/{trace}: failed_ratio not printed")
            info = json.loads(lines[-2].removeprefix("info "))
            for k in ("python", "numpy", "blas", "blas_threads", "cpu_count", "src_lines"):
                if k not in info["environment"]:
                    problems.append(f"{workload}/{trace}: environment lacks {k}")
            if trace and workload == "toy-unit" and "ref.scipy_linkage_s" not in info:
                problems.append("ref.scipy_linkage_s not reported")
    return problems


def check_corruption_fails() -> list[str]:
    prep = TOY["toy-unit"](5, run.WORK / "inputs", run.run_cli)
    clean, _ = run.measure(prep, 0, False, None)
    if clean[0].problems:
        return [f"clean run failed: {clean[0].problems}"]

    def corrupt(outdir: Path) -> None:
        path = outdir / "manifest.txt"
        path.write_bytes(path.read_bytes() + b"\n")

    samples, _ = run.measure(prep, 0, False, clean[0].digests, tamper=corrupt)
    if run.failed_ratio(samples) <= 0:
        return ["failed_ratio stayed 0 with a corrupted manifest.txt"]
    if not any("manifest.txt" in p for p in samples[0].problems):
        return [f"corruption not named: {samples[0].problems}"]
    return []


def check_missing_wrap_point() -> list[str]:
    """A renamed function: its metrics go missing, the rest are still measured."""
    sys.path.insert(0, str(run.SRC))
    import redunda.cli

    gone = "metric.unit_rows"
    points = tuple((name, m, a + "_renamed" if name == gone else a, c)
                   for name, m, a, c in spans.WRAP_POINTS)
    prep = TOY["toy-unit"](7, run.WORK / "inputs", run.run_cli)
    outdir = run.WORK / "out" / "selftest-missing"
    shutil.rmtree(outdir, ignore_errors=True)
    tracer = spans.Tracer(points)
    missing = tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = redunda.cli.main(["select", "--input", str(prep.input_path),
                                   *prep.select_args, "--out", str(outdir)])
    finally:
        tracer.uninstall()
    problems = [] if rc == 0 else [f"traced select exited {rc}"]
    if missing != [gone]:
        problems.append(f"install reported {missing}")
    samples = [run.Sample(0, False, {"wall_s": 1.0}, {}),
               run.Sample(1, True, {"spans": tracer.spans, "missing": missing, "wall_s": 1.0}, {})]
    metrics, dropped = run.per_layer(prep, samples)
    expect = sorted(m for m, (_, needs) in spans.LAYER_METRICS.items() if gone in needs)
    if dropped != expect or any(m in metrics for m in expect):
        problems.append(f"dropped {dropped}, expected {expect}")
    if "cluster.agglomerate_s" not in metrics:
        problems.append("metrics of present wrap points were lost")
    return problems


def main() -> int:
    if not (run.SRC / "redunda" / "cli.py").is_file():
        print(f"selftest: no redunda sources at {run.SRC}", file=sys.stderr)
        return 2
    WORKLOADS.update(TOY)
    (run.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    (run.WORK / "inputs").mkdir(parents=True, exist_ok=True)
    bad = 0
    for check in (check_metrics_printed, check_corruption_fails, check_missing_wrap_point):
        problems = check()
        bad += bool(problems)
        print(f"[selftest] {check.__name__}: {'FAIL' if problems else 'PASS'}")
        for p in problems:
            print(f"    {p}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
