"""Regenerate the reference figures of perfbench/README.md.

Runs ``run.py`` untraced on every workload for each seed, then once traced
per workload with seed 1, each run as long as ``run_seconds`` in
``BENCHMARK.json``, and prints markdown tables: the median and quartiles of each
end-to-end metric with the quartile spread as a share of the median, the
per-layer figures of the traced runs, and the tracing overhead (traced
against untraced ``ops_per_s``).

Usage (from the repository root):

    python3 perfbench/reference.py --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("changegen", "spectral", "functions")
TRACE_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", required=True, help="seed range of the untraced runs, as 1-10")
    args = p.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    e2e: dict[str, dict[str, list[float]]] = {}
    rss_end: dict[str, list[float]] = {}
    out_dir = HERE.parent / ".perfbench_out"
    for w in WORKLOADS:
        for s in seeds(args.seeds):
            res = run(w, s, seconds, 0)
            if not res["correct"]:
                print(f"{w} seed {s}: {res['failed']} of {res['attempted']} failed", file=sys.stderr)
            for k, m in res["metrics"].items():
                e2e.setdefault(w, {}).setdefault(k, []).append(m["value"])
            rec = json.loads((out_dir / f"{w}-seed{s}-trace0.json").read_text())
            rss_end.setdefault(w, []).append(rec["peak_rss_end_mb"])
            print(f"{w} seed {s}: " + ", ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
                  file=sys.stderr, flush=True)

    print("| workload | metric | median | q1 | q3 | (q3-q1)/median |")
    print("| --- | --- | --- | --- | --- | --- |")
    for w, ms in e2e.items():
        for k, v in ms.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            print(f"| {w} | {k} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} |")

    print()
    print("| workload | peak_rss_mb after operation 0 (median) | peak at end of run, checks included (median) |")
    print("| --- | --- | --- |")
    for w in WORKLOADS:
        print(f"| {w} | {statistics.median(e2e[w]['peak_rss_mb']):.4g} | {statistics.median(rss_end[w]):.4g} |")

    traced = {w: run(w, TRACE_SEED, seconds, 1) for w in WORKLOADS}
    names = list(next(iter(traced.values()))["metrics"])
    print()
    print("| per-layer metric (per operation) | " + " | ".join(WORKLOADS) + " |")
    print("| --- |" + " --- |" * len(WORKLOADS))
    for k in names:
        print(f"| {k} | " + " | ".join(f"{traced[w]['metrics'][k]['value']:.4g}" for w in WORKLOADS) + " |")

    print()
    print("| workload | untraced ops_per_s (median) | traced ops_per_s | overhead |")
    print("| --- | --- | --- | --- |")
    for w in WORKLOADS:
        rec = json.loads((out_dir / f"{w}-seed{TRACE_SEED}-trace1.json").read_text())
        traced_rate = (rec["attempted"] - rec["failed"]) / sum(rec["op_seconds"])
        base = statistics.median(e2e[w]["ops_per_s"])
        print(f"| {w} | {base:.4g} | {traced_rate:.4g} | {base / traced_rate - 1:+.0%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
