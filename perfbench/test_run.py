#!/usr/bin/env python3
"""Self-test of the canonical benchmark.

  python3 perfbench/test_run.py

Runs every workload through perfbench/run.py at a tiny size, untraced and
traced, and checks that:
  * the result line has exactly its four keys, every operation
    succeeded, and the metrics are exactly BENCHMARK.json's set, each with
    its unit;
  * the printed table shows every metric with its unit and direction,
    plus the unbounded error_rate and slot_p99_ms;
  * a serve trace with a non-positive price raises error_rate above 0
    (reported, not a crash and not a silent pass).
The first test builds the driver, which takes a minute or two.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


class BenchmarkSelfTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_bench(workload, trace, "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        table = {l.split()[0]: l.split() for l in lines[:-1] if l.split()}
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], float)
            row = table.get(m["name"])
            self.assertIsNotNone(row, "%s missing from the table" % m["name"])
            self.assertEqual(row[2:4], [m["unit"], m["better"]])
        self.assertEqual(table["error_rate"][1:4], ["0", "fraction", "lower"])
        if not trace:
            self.assertEqual(table["slot_p99_ms"][2:], ["ms", "lower", "(not", "bounded)"])
        return result

    def test_serve(self):
        result = self.check_run("serve", 0)
        self.assertGreater(result["metrics"]["slots_per_s"]["value"], 0)
        self.check_run("serve", 1)

    def test_scale_1m(self):
        self.check_run("scale_1m", 0)
        self.check_run("scale_1m", 1)

    def test_paper_sweep(self):
        result = self.check_run("paper_sweep", 0)
        self.assertGreater(result["metrics"]["legs_per_s"]["value"], 0)
        self.check_run("paper_sweep", 1)

    def test_bad_price_row_raises_error_rate(self):
        proc = run_bench("serve", 0, "--tiny", "--inject", "bad_price")
        self.assertEqual(proc.returncode, 0, proc.stderr + proc.stdout)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])
        error_rate = [l.split() for l in lines if l.startswith("error_rate")][0]
        self.assertGreater(float(error_rate[1]), 0.0)
        self.assertTrue(any("price" in l for l in lines if l.startswith("FAILED")),
                        proc.stdout)


if __name__ == "__main__":
    unittest.main()
