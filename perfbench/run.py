"""freemult benchmark: one workload, one closed-loop caller, every metric.

Usage (from the repository root):

    python3 perfbench/run.py --workload {changegen,spectral,functions} \\
        --seed N --seconds S --trace {0,1}

Each workload runs in its own process on one thread with one BLAS thread,
using the package sources under ``src/`` (the pure-Python word kernel
unless a compiled one has been built there).  With ``--trace 0`` the
command first starts the workload ``SETUP_ONLY`` times up to its first
timed operation, to sample set-up time, then once more to measure, and
reports the end-to-end metrics.  With ``--trace 1`` it runs once with the
per-layer wrappers of ``tracing.py`` installed and reports the per-layer
metrics instead.  Every output is checked (``oracles.py``); an operation
whose output fails a check counts as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (operation
times, set-up samples, environment, span totals) is written to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("changegen", "spectral", "functions")
SETUP_ONLY = 6  # set-up-only starts per untraced run; the measuring start adds one
SETUP_DEADLINE_S = 60.0
RUN_GRACE_S = 60.0  # allowed beyond --seconds for the last operation and output
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerFailed(Exception):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time and, unless ``setup_only``,
    its result record."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    deadline = SETUP_DEADLINE_S + (0 if setup_only else args.seconds + RUN_GRACE_S)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(deadline, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or ready.strip() != "READY":
        raise WorkerFailed(f"worker exited with code {code}")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    return setup_s, json.loads(lines[-1])


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "freemult" / "__init__.py").is_file():
        print(f"freemult sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_ONLY):
                setups.append(start_worker(args, setup_only=True)[0])
        setup_s, res = start_worker(args, setup_only=False)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    times = res["op_seconds"]
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        metrics = res["layers"]
    else:
        values = {
            "ops_per_s": (attempted - failed) / sum(times),
            "op_p50_ms": statistics.median(times) * 1000.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "setup_samples_s": setups,
        "metrics": metrics,
        **res,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
