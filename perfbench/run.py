#!/usr/bin/env python3
"""Builds the rrp benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload drrp_fl --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  The first run configures and builds
the driver (Release) under .bench_build/perfbench; later runs only check
that the build is current.  Build output goes to stderr.  The driver's
report goes to stdout, and its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
The workloads, their metrics and why they were chosen are described in
perfbench/WORKLOADS.md.  Exit status: the driver's (0 when every answer
was correct), or 1 when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the driver; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench_driver",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run_driver(workload, seed, seconds, trace):
    """Runs the driver once; returns (exit code, stdout lines)."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    """The driver's JSON result line, or None when it is malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    code, lines = run_driver(args.workload, args.seed, args.seconds,
                             args.trace)
    if parse_result(lines) is None:
        sys.stderr.write("\n".join(lines) + "\n")
        print("perfbench: the driver printed no result", file=sys.stderr)
        return 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
