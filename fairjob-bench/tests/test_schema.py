#!/usr/bin/env python3
"""Schema tests of fairjob-bench: BENCHMARK.json follows the benchmark
contract, lists exactly the metrics the binary prints, and a real run's last
stdout line is the result object with exactly those metrics.

    python3 fairjob-bench/tests/test_schema.py .bench_build/fairjob_bench
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY = None  # set from argv

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run(args):
    with tempfile.TemporaryDirectory() as work:
        return subprocess.run([BINARY] + args + ["--work-dir", work],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_benchmark()

    def test_top_level_keys_and_limits(self):
        self.assertEqual(set(self.bench), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertLessEqual(len(self.bench["command"]), 32)
        self.assertTrue(1 <= len(self.bench["paths"]) <= 16)
        for path in self.bench["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_.\-/]{1,200}$")
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
        for arg in self.bench["command"]:
            self.assertFalse(arg.startswith("/"))
        run_seconds = self.bench["run_seconds"]
        self.assertIsInstance(run_seconds, int)
        self.assertTrue(1 <= run_seconds <= 60)
        self.assertLessEqual(
            len(json.dumps(self.bench).encode()), 64 * 1024)

    def test_workloads(self):
        workloads = self.bench["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metric_entries(self):
        names = []
        for m in self.bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25, m)
            names.append(m["name"])
        self.assertTrue(1 <= len(self.bench["end_to_end"]) <= 16)
        for m in self.bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertTrue(1 <= len(self.bench["per_layer"]) <= 128)
        for m in self.bench["end_to_end"] + self.bench["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.bench["end_to_end"]))

    def test_binary_lists_the_same_metrics(self):
        done = run(["--list-metrics"])
        self.assertEqual(done.returncode, 0, done.stderr)
        listed = {"end_to_end": [], "per_layer": []}
        for line in done.stdout.splitlines():
            kind, name, unit = line.split()
            listed[kind].append((name, unit))
        for kind in listed:
            self.assertEqual(
                listed[kind],
                [(m["name"], m["unit"]) for m in self.bench[kind]], kind)


class ResultLineTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_benchmark()

    def check_result(self, trace, kind):
        done = run(["--workload", "paper-audit", "--seed", "3",
                    "--seconds", "1", "--trace", str(trace)])
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in self.bench[kind]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], expected[name])
            self.assertIsInstance(metric["value"], (int, float))
        return result

    def test_untraced_run_prints_end_to_end_metrics(self):
        result = self.check_result(0, "end_to_end")
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_traced_run_prints_per_layer_metrics(self):
        result = self.check_result(1, "per_layer")
        self.assertGreater(result["metrics"]["crawl.self_ms"]["value"], 0)
        self.assertGreater(result["metrics"]["trace.spans"]["value"], 0)

    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "paper-audit", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "paper-audit", "--seed", "1",
                      "--seconds", "1", "--trace", "2"]):
            done = run(args)
            self.assertNotEqual(done.returncode, 0, args)
            self.assertNotIn("\"metrics\"", done.stdout)


if __name__ == "__main__":
    BINARY = os.path.abspath(sys.argv.pop(1))
    unittest.main()
