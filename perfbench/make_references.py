"""Pin the reference sha256 of every deterministic artifact, per workload and seed.

    python3 perfbench/make_references.py --seeds 0-31 [--workload NAME ...]

Runs one `select` per workload and seed on the current sources, requires the
workload's own checks to pass, and stores the digests in references.json under
this machine's numpy + BLAS fingerprint (digests are byte-exact only there).
Run it only on the commit whose outputs are meant to be the reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-31")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    env = run.environment()
    key = run.fingerprint(env)
    try:
        doc = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    except FileNotFoundError:
        doc = {}
    table = doc.setdefault(key, {})
    inputs = run.WORK / "inputs"
    (run.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir()
            prep = WORKLOADS[name](seed, inputs, run.run_cli)
            sample = run.run_sample(prep, 0, False, None)
            if sample.problems:
                print(f"{name} seed {seed}: {sample.problems}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = sample.digests
            print(f"{name} seed {seed}: {len(sample.digests)} artifacts", flush=True)
            run.REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
