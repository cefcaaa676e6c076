#!/usr/bin/env python3
"""Measures how steady the benchmark is across seeds.

Runs perfbench/run.py once per seed for each workload given and prints, for
every end-to-end metric in BENCHMARK.json, the median of the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread is
flagged when it exceeds the metric's bound (setup_s is reported, not
flagged), and every run must report correct=true with failed=0.

    python3 perfbench/spread.py --seeds 10 --seconds 10 chains_single cp_history

Exits 1 when a run fails, a check fails, or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    # Seed-major order: every workload samples the same stretch of the
    # host's speed drift.
    values = {w: {name: [] for name in bounds} for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in args.workloads:
            result = run_once(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"] != 0:
                print(f"{workload} seed {seed}: check failed: {result}")
                ok = False
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
    for workload in args.workloads:
        print(f"== {workload} ({args.seeds} seeds, {seconds} s)")
        for name, vals in values[workload].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag = "  EXCEEDS BOUND"
                ok = False
            elif name != "setup_s" and spread > bounds[name] / 3:
                flag = "  above a third of the bound"
            print(f"  {name:18s} median {med:14.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
