#!/usr/bin/env python3
"""Tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Checks BENCHMARK.json against the benchmark's contract, and runs every
workload at the tiny size, untraced and traced, through run.py: each run
must pass its output checks and print exactly the metric names and units
BENCHMARK.json declares.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Every workload the binary runs; BENCHMARK.json lists those a change is
# judged by (service_zipf is left out, see README.md).
WORKLOADS = ("genome_pair", "longtail", "service_zipf")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_tiny(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


class BenchmarkJsonTest(unittest.TestCase):
    def test_contract_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertIn(w["name"], WORKLOADS)
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for name in names:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class TinyRunTest(unittest.TestCase):
    def check_run(self, workload, trace):
        spec = load_spec()
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        code, lines, err = run_tiny(workload, trace)
        self.assertEqual(code, 0, f"{workload} trace={trace} failed:\n{err}\n" +
                         "\n".join(lines[-30:]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual([(m["name"], m["unit"]) for m in declared],
                         [(k, v["unit"]) for k, v in result["metrics"].items()])
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)
        notes = dict(line[2:].split("=", 1) for line in lines if line.startswith("# ") and
                     "=" in line and not line.startswith("# metric"))
        for key in ("workload", "seed", "nproc", "threads", "simd_active", "simd_detected",
                    "digest.alignments", "digest.gpusim"):
            self.assertIn(key, notes)
        self.assertEqual(notes["workload"], workload)
        self.assertFalse([k for k, v in notes.items() if v == "FAILED"])
        return notes

    def test_every_workload_untraced_and_traced(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_same_seed_same_outputs(self):
        first = self.check_run("genome_pair", 0)
        second = self.check_run("genome_pair", 0)
        self.assertEqual(first["digest.alignments"], second["digest.alignments"])
        self.assertEqual(first["digest.gpusim"], second["digest.gpusim"])

    def test_unknown_workload_fails_without_result(self):
        code, lines, _ = run_tiny("no_such_workload", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
