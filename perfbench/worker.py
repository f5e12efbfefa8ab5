"""One benchmark process: set up a workload, then run it in a closed loop.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and one BLAS thread.
Set-up (imports, a warm-up operation at small sizes, the inputs of the
first operation) ends with a ``READY`` line on stdout; the parent times
set-up up to that line.  With ``--setup-only`` the process stops there.
Otherwise it runs operations one after another, each on fresh inputs,
until ``--seconds`` have passed since the first one started, checks every
output, and prints one JSON line with the operation times and counts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import freemult as fm
from tracing import Tracer
from workloads import WORKLOADS


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def attempt(wl, i: int, inp: dict, tracer: Tracer | None) -> tuple[float, float, list[str]]:
    """Run and check operation ``i``; return its wall time, the peak
    resident set read after the run and before the check, and problems."""
    if tracer is not None:
        tracer.enabled = True
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
    except Exception:
        return time.perf_counter() - t0, peak_rss_mb(), [traceback.format_exc()]
    finally:
        if tracer is not None:
            tracer.enabled = False
    elapsed = time.perf_counter() - t0
    rss = peak_rss_mb()
    try:
        return elapsed, rss, wl.check(i, inp, out)
    except Exception:
        return elapsed, rss, ["check raised:\n" + traceback.format_exc()]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    cls = WORKLOADS[args.workload]
    warm = cls(args.seed, warm=True)
    warm_in = warm.inputs(0)
    _, _, problems = attempt(warm, 0, warm_in, None)
    if problems:
        print("warm-up failed:", *problems, sep="\n", file=sys.stderr)
        return 1

    wl = cls(args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    inp = wl.inputs(0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    times: list[float] = []
    run_rss = 0.0
    failed = 0
    i = 0
    start = time.perf_counter()
    while True:
        if i:
            inp = wl.inputs(i)
        elapsed, rss, problems = attempt(wl, i, inp, tracer)
        times.append(elapsed)
        if i == 0:
            # Later readings would include the peaks of earlier checks.
            run_rss = rss
        if problems:
            failed += 1
            print(f"operation {i} failed:", *problems, sep="\n", file=sys.stderr)
        i += 1
        if time.perf_counter() - start >= args.seconds:
            break

    result = {
        "op_seconds": times,
        "attempted": i,
        "failed": failed,
        "peak_rss_mb": run_rss,
        "peak_rss_end_mb": peak_rss_mb(),
        "kernel_backend": fm.kernel_backend(),
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in os.environ.items() if "THREADS" in k},
    }
    if tracer is not None:
        done = i - failed
        result["layers"] = tracer.report(max(done, 1))
        result["spans"] = {
            name: {"calls": tracer.calls[name], "self_s": tracer.self_s[name]}
            for name in sorted(tracer.calls)
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
