#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench) for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chains_single --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (and the library sources in
src/ it links) in Release mode under $CARGO_TARGET_DIR, or .bench_build when
that is unset; later runs only rebuild what changed. Build output goes to
stderr. The benchmark's standard output is passed through unchanged: metric
lines, a provenance line, and as the last line one JSON object with the keys
correct, attempted, failed and metrics. A per-run JSON record (with
provenance) and, for traced runs, a CSV of the recorded spans are written to
<build dir>/results/.

    python3 perfbench/run.py --test    # builds and runs the benchmark's own tests
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("chains_single", "chains_threaded", "federation_ha", "cp_history")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def sh(cmd, log):
    """Runs a build command, sending its output to `log` (stderr)."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log.write(proc.stdout)
    return proc.returncode == 0


def build(targets) -> Path:
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        if not sh(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"], sys.stderr):
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not sh(["cmake", "--build", str(out), "-j", jobs, "--target", *targets],
              sys.stderr):
        sys.exit("perfbench: build failed")
    return out


def source_rev() -> str:
    """The git commit when this is a git checkout, otherwise a digest of the
    library and benchmark sources (a plain export has no history)."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.test:
        out = build(["perfbench_tests"])
        return subprocess.run([str(out / "perfbench_tests")], cwd=ROOT).returncode
    if args.workload is None:
        parser.error("--workload is required")

    out = build(["perfbench"])
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(results),
           "--git-rev", source_rev()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        sys.exit(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
