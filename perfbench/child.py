"""One measured call in a fresh interpreter, started by run.py.

    child.py T0_NS RESULT probe                     import redunda.cli only
    child.py T0_NS RESULT cli [--trace] -- ARGV...   redunda.cli.main(ARGV)
    child.py T0_NS RESULT scipy INPUT N              scipy linkage on INPUT's first N rows

T0_NS is the parent's time.monotonic_ns() just before it started this
process; CLOCK_MONOTONIC is system-wide, so ``setup_s`` covers interpreter
start, numpy/BLAS load and the redunda import.  The result is written as JSON
to RESULT.  Nothing is printed here: a run fails if the program writes to
stderr, so the child must not.
"""

import sys
import time


def main(argv: list[str]) -> int:
    t0_ns, result_path, mode = int(argv[0]), argv[1], argv[2]
    out: dict = {}
    rc = 0
    if mode == "scipy":
        out.update(scipy_reference(argv[3], int(argv[4])))
    else:
        import redunda.cli

        out["setup_s"] = (time.monotonic_ns() - t0_ns) / 1e9
        if mode == "cli":
            rest = argv[3:]
            traced = rest[0] == "--trace"
            cli_argv = rest[rest.index("--") + 1 :]
            tracer = None
            if traced:
                import spans

                tracer = spans.Tracer()
                out["missing"] = tracer.install()
            t = time.perf_counter()
            rc = redunda.cli.main(cli_argv)
            out["wall_s"] = time.perf_counter() - t
            if tracer is not None:
                out["spans"] = tracer.spans
    import json
    import resource

    out["rc"] = rc
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return rc


def scipy_reference(input_path: str, n: int) -> dict:
    """Time scipy's complete/cosine linkage on the first ``n`` rows of a binary input."""
    try:
        from scipy.cluster.hierarchy import linkage
    except ImportError:
        return {"scipy_s": None}
    import struct

    import numpy as np

    with open(input_path, "rb") as fh:
        dim = struct.unpack("<4sIIQI", fh.read(24))[4]
        rows = np.fromfile(fh, dtype=[("cid", "<u4"), ("vec", "<f4", (dim,))], count=n)
    X = rows["vec"].astype(np.float64)
    t = time.perf_counter()
    linkage(X, method="complete", metric="cosine")
    return {"scipy_s": time.perf_counter() - t}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
