#!/usr/bin/env python3
"""Self-test for check_perf.py, the perf-smoke gate: runs the script on
small fixture JSONs and checks its exit code, so a gate that silently
passes everything (or fails everything) is caught before CI trusts it.

Usage: python3 tools/test_check_perf.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_perf.py")

SOLVER_SCHEMA = "rrp-bench-solvers-v5"
REPLAN_SCHEMA = "rrp-bench-replan-v2"

SOLVER_BASELINE = {
    "schema": SOLVER_SCHEMA,
    "min_srrp_warm_speedup": 3.0,
    "results": [
        {"name": "warm_row", "nodes_per_second": 1000},
        {"name": "opt_row", "max_nodes": 40, "max_refactorizations": 17},
        {"name": "cold_row", "max_nodes": 1, "max_pivots": 130},
    ],
}

SOLVER_RUN = {
    "schema": SOLVER_SCHEMA,
    "srrp_warm_speedup": 4.0,
    "results": [
        {"name": "warm_row", "nodes_per_second": 1200, "nodes": 300},
        {"name": "opt_row", "nodes": 29, "pivots": 500,
         "refactorizations": 11},
        {"name": "cold_row", "nodes": 1, "pivots": 87,
         "refactorizations": 2},
        {"name": "ungated_row", "nodes": 19421, "pivots": 20256},
    ],
}

REPLAN_BASELINE = {
    "schema": REPLAN_SCHEMA,
    "flatness": {"mode": "incremental", "from_history": 256,
                 "to_history": 4096, "max_ratio": 1.3},
    "min_incremental_speedup": {"history": 2048, "min": 5.0},
}


def replan_run(latency_at_4096):
    rows = [
        {"history": 256, "mode": "incremental",
         "mean_replan_seconds": 0.0010},
        {"history": 2048, "mode": "incremental",
         "mean_replan_seconds": 0.0010},
        {"history": 2048, "mode": "rebuild", "mean_replan_seconds": 0.0100},
        {"history": 4096, "mode": "incremental",
         "mean_replan_seconds": latency_at_4096},
    ]
    return {"schema": REPLAN_SCHEMA, "results": rows}


class CheckPerfTests(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory(prefix="check_perf_test_")
        self.addCleanup(self._dir.cleanup)

    def run_gate(self, measured, baseline):
        paths = []
        for name, doc in (("measured.json", measured),
                          ("baseline.json", baseline)):
            path = os.path.join(self._dir.name, name)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            paths.append(path)
        proc = subprocess.run([sys.executable, SCRIPT, *paths],
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def test_passing_solver_run(self):
        code, out = self.run_gate(SOLVER_RUN, SOLVER_BASELINE)
        self.assertEqual(code, 0, out)
        self.assertIn("perf-smoke passed", out)

    def test_node_cap_exceeded(self):
        run = copy.deepcopy(SOLVER_RUN)
        run["results"][1]["nodes"] = 41
        code, out = self.run_gate(run, SOLVER_BASELINE)
        self.assertEqual(code, 1, out)
        self.assertIn("opt_row: 41 nodes exceeds cap 40", out)

    def test_missing_baseline_row(self):
        run = copy.deepcopy(SOLVER_RUN)
        run["results"] = [r for r in run["results"]
                          if r["name"] != "cold_row"]
        code, out = self.run_gate(run, SOLVER_BASELINE)
        self.assertEqual(code, 1, out)
        self.assertIn("cold_row: missing from measured results", out)

    def test_schema_mismatch(self):
        run = copy.deepcopy(SOLVER_RUN)
        run["schema"] = "rrp-bench-solvers-v4"
        code, out = self.run_gate(run, SOLVER_BASELINE)
        self.assertEqual(code, 1, out)
        self.assertIn("does not match baseline schema", out)

    def test_passing_replan_run(self):
        code, out = self.run_gate(replan_run(0.0012), REPLAN_BASELINE)
        self.assertEqual(code, 0, out)
        self.assertIn("perf-smoke (replan) passed", out)

    def test_replan_flatness_broken(self):
        code, out = self.run_gate(replan_run(0.0014), REPLAN_BASELINE)
        self.assertEqual(code, 1, out)
        self.assertIn("flatness: incremental latency grew 1.40x", out)


if __name__ == "__main__":
    unittest.main()
