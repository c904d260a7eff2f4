#!/usr/bin/env python3
"""Build the serving benchmark from the repository's sources and run it.

    python3 perfbench/run.py --workload full_rsa --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run from the repository root. The build goes to .bench_build/perfbench;
build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. --workload all runs every workload in turn.
The exit code is nonzero when the build fails or any correctness check
fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("full_rsa", "bulk_3des", "web_mix")
DEFAULT_SEED = 1
# Longest run allowed; a slower run is killed and counts as failed.
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: library sources not found under {ROOT}/src")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_serve", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench_serve"


def run(binary, workload, args):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(BUILD / f"spans-{workload}.tsv")]
    sys.stdout.flush()
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for w in workloads:
        try:
            rc = run(binary, w, args)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {w} timed out", file=sys.stderr)
            rc = 1
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
