#!/usr/bin/env python3
"""Perf-smoke gate: compare a BENCH_solvers.json run against the
checked-in baseline (bench/BENCH_solvers.baseline.json).

The baseline stores deliberately conservative node-throughput floors
(roughly a third of a developer workstation) so that normal CI-runner
variance passes, while a real regression — e.g. warm starts silently
disabled, or a per-node allocation creeping back in — trips the gate.

Failure conditions:
  * a benchmark's nodes_per_second drops more than --tolerance (default
    25%) below its baseline floor;
  * a benchmark explores more nodes than its baseline `max_nodes` cap
    (node counts are deterministic at jobs=1, so a cap catches cut or
    branching regressions that wall-time floors would miss);
  * a benchmark's node LPs take more simplex pivots than its baseline
    `max_pivots` cap (deterministic at jobs=1 like node counts; catches
    a cold solve silently going back to a primal first phase);
  * a benchmark rebuilds the sparse LU factor more often than its
    baseline `max_refactorizations` cap (deterministic at jobs=1; catches
    node solves that stop reusing the factor across the tree);
  * srrp_warm_speedup falls below the baseline's min_srrp_warm_speedup
    (the ISSUE 5 acceptance bar: warm starts must at least double B&B
    node throughput on the SRRP deterministic equivalent);
  * a baseline benchmark is missing from the measured file;
  * the measured file's "schema" differs from the baseline's (for both
    suites), so a run in an old or foreign layout is refused.

On failure, each offending line reports the measured-vs-floor ratio so
the log shows how far off the run was without a manual division.

The same script also gates the re-plan latency suite: when the baseline
file carries "schema": "rrp-bench-replan-v2" (bench/BENCH_replan.
baseline.json vs a BENCH_replan.json run from bench_replan_json), the
checks switch to:
  * flatness — the incremental mode's mean re-plan latency at
    `to_history` may be at most `max_ratio` times its latency at
    `from_history` (the ISSUE 10 bar: incremental maintenance cost is a
    function of new data, not total history);
  * min_incremental_speedup — at the pinned history, the rebuild mode's
    mean re-plan latency must be at least `min` times the incremental
    mode's (CI floor: incremental beats full rebuild >= 5x at 2048h).

Usage: check_perf.py MEASURED_JSON BASELINE_JSON [--tolerance 0.25]
"""

import argparse
import json
import sys

REPLAN_SCHEMA = "rrp-bench-replan-v2"


def ratio_str(actual: float, floor: float) -> str:
    if floor <= 0:
        return "n/a"
    return f"{actual / floor:.2f}x"


def check_replan(measured: dict, baseline: dict) -> int:
    """Gate a re-plan latency suite run."""
    by_key = {(r["history"], r["mode"]): r
              for r in measured.get("results", [])}
    failures = []

    def latency(history: int, mode: str):
        row = by_key.get((history, mode))
        if row is None:
            failures.append(f"missing measured row: history={history} "
                            f"mode={mode}")
            return None
        return row["mean_replan_seconds"]

    flat = baseline.get("flatness")
    if flat is not None:
        small = latency(flat["from_history"], flat["mode"])
        large = latency(flat["to_history"], flat["mode"])
        if small is not None and large is not None:
            if small <= 0:
                failures.append(f"flatness: non-positive latency at "
                                f"history {flat['from_history']}")
            else:
                ratio = large / small
                cap = flat["max_ratio"]
                status = "ok" if ratio <= cap else "FAIL"
                print(f"{status:4} {flat['mode']} flatness "
                      f"{flat['from_history']}h -> {flat['to_history']}h: "
                      f"{small * 1e3:.3f} ms -> {large * 1e3:.3f} ms "
                      f"({ratio:.2f}x, cap {cap:.2f}x)")
                if ratio > cap:
                    failures.append(
                        f"flatness: {flat['mode']} latency grew {ratio:.2f}x "
                        f"from {flat['from_history']}h to "
                        f"{flat['to_history']}h (cap {cap:.2f}x)")

    speed = baseline.get("min_incremental_speedup")
    if speed is not None:
        inc = latency(speed["history"], "incremental")
        reb = latency(speed["history"], "rebuild")
        if inc is not None and reb is not None:
            if inc <= 0:
                failures.append(f"speedup: non-positive incremental latency "
                                f"at history {speed['history']}")
            else:
                speedup = reb / inc
                floor = speed["min"]
                status = "ok" if speedup >= floor else "FAIL"
                print(f"{status:4} incremental speedup @ "
                      f"{speed['history']}h: rebuild {reb * 1e3:.3f} ms vs "
                      f"incremental {inc * 1e3:.3f} ms "
                      f"({speedup:.2f}x, minimum {floor:.2f}x)")
                if speedup < floor:
                    failures.append(
                        f"speedup: incremental only {speedup:.2f}x faster "
                        f"than rebuild at {speed['history']}h "
                        f"(minimum {floor:.2f}x)")

    if failures:
        print("\nperf-smoke (replan) FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf-smoke (replan) passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("measured")
    parser.add_argument("baseline")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop below the baseline "
                             "floor (default 0.25)")
    args = parser.parse_args()

    with open(args.measured) as f:
        measured = json.load(f)
    with open(args.baseline) as f:
        baseline = json.load(f)

    if measured.get("schema") != baseline.get("schema"):
        print(f"perf-smoke FAILED: measured schema "
              f"{measured.get('schema')!r} does not match baseline schema "
              f"{baseline.get('schema')!r}", file=sys.stderr)
        return 1
    if baseline.get("schema") == REPLAN_SCHEMA:
        return check_replan(measured, baseline)

    measured_by_name = {r["name"]: r for r in measured.get("results", [])}
    failures = []

    for base in baseline.get("results", []):
        name = base["name"]
        gates_nps = "nodes_per_second" in base
        gates_nodes = "max_nodes" in base
        counts = [key for key in ("pivots", "refactorizations")
                  if f"max_{key}" in base]
        if not (gates_nps or gates_nodes or counts):
            continue
        got = measured_by_name.get(name)
        if got is None:
            failures.append(f"{name}: missing from measured results")
            continue
        if gates_nps:
            floor = base["nodes_per_second"] * (1.0 - args.tolerance)
            actual = got.get("nodes_per_second", 0.0)
            status = "ok" if actual >= floor else "FAIL"
            print(f"{status:4} {name}: {actual:.0f} nodes/s "
                  f"(floor {floor:.0f}, baseline "
                  f"{base['nodes_per_second']:.0f}, "
                  f"{ratio_str(actual, floor)} of floor)")
            if actual < floor:
                failures.append(
                    f"{name}: {actual:.0f} nodes/s below floor {floor:.0f} "
                    f"({ratio_str(actual, floor)} of floor)")
        if gates_nodes:
            cap = base["max_nodes"]
            nodes = got.get("nodes", 0)
            status = "ok" if nodes <= cap else "FAIL"
            print(f"{status:4} {name}: {nodes} nodes (cap {cap})")
            if nodes > cap:
                failures.append(
                    f"{name}: {nodes} nodes exceeds cap {cap} "
                    f"({nodes / cap:.2f}x of cap)")
        for key in counts:
            cap = base[f"max_{key}"]
            count = got.get(key)
            if count is None:
                failures.append(f"{name}: no {key} count in measured results")
                continue
            status = "ok" if count <= cap else "FAIL"
            print(f"{status:4} {name}: {count} {key} (cap {cap})")
            if count > cap:
                failures.append(
                    f"{name}: {count} {key} exceeds cap {cap} "
                    f"({count / cap:.2f}x of cap)")

    min_speedup = baseline.get("min_srrp_warm_speedup")
    if min_speedup is not None:
        speedup = measured.get("srrp_warm_speedup", 0.0)
        status = "ok" if speedup >= min_speedup else "FAIL"
        print(f"{status:4} srrp_warm_speedup: {speedup:.2f}x "
              f"(minimum {min_speedup:.2f}x)")
        if speedup < min_speedup:
            failures.append(
                f"srrp_warm_speedup {speedup:.2f}x below {min_speedup:.2f}x "
                f"({ratio_str(speedup, min_speedup)} of minimum)")

    if failures:
        print("\nperf-smoke FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
