"""Tiny-size self-test of the planet benchmark.

Runs every workload at `--scale tiny` with tracing off and on, and checks
that the printed metrics are exactly the ones BENCHMARK.json declares (same
names, same units) and that every output check passed; then damages one
saved output (a dropped cell, a perturbed cluster weight) and checks that
the command fails.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import numbers
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


class SelfTest(unittest.TestCase):
    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(bench.WORKLOADS))

    def test_every_workload_prints_the_declared_metrics_and_passes_its_checks(self):
        for workload in bench.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = run(workload, trace)
                    self.assertEqual(code, 0, err)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], numbers.Real, name)

    def test_a_wrong_output_fails_the_run(self):
        for corrupt in ("drop-cell", "perturb-weight"):
            with self.subTest(corrupt=corrupt):
                code, result, _ = run("planet-small", 0, "--corrupt", corrupt)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
