#!/usr/bin/env python3
"""Checks that the benchmark's answers and work repeat exactly.

    python3 perfbench/check_steady.py [--seed N]

Runs every workload twice, in two separate short driver processes, and
compares the `work_fingerprint` line the driver prints: the
cost_pct_of_no_plan value to all 17 digits and the registry work
counters of one round (pivots, refactorisations, nodes, SARIMA fit
evaluations, re-plans, refits by tier).  Within a process the driver
already fails a run whose rounds differ; this adds the check across
processes.  Both runs' CPU probe times are printed, to show how far the
machine's speed moved between them.  Exit 0 when every workload repeats
exactly, 1 otherwise.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the sibling run.py: build and driver helpers)

WORKLOADS = ["drrp_fl", "srrp_tree", "replan_stream"]
SHORT_RUN_SECONDS = 0.5


def fingerprint(workload, seed):
    """(fingerprint line, cpu probe text) of one short run."""
    code, lines = run.run_driver(workload, seed, SHORT_RUN_SECONDS, 0)
    if code != 0 or run.parse_result(lines) is None:
        return None, None
    line = next((l for l in lines if l.startswith("work_fingerprint")), None)
    probe = lines[0].split("cpu probe ")[-1] if lines else "?"
    return line, probe


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not run.build():
        return 1
    ok = True
    for workload in WORKLOADS:
        first, probe1 = fingerprint(workload, args.seed)
        second, probe2 = fingerprint(workload, args.seed)
        same = first is not None and first == second
        ok = ok and same
        print(f"{workload}: {'identical' if same else 'DIFFERENT'}"
              f"  (cpu probe {probe1} / {probe2})")
        if not same:
            print(f"  first:  {first}\n  second: {second}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
