#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

- the A/A script's statistics helpers agree with Python's statistics
  module;
- BENCHMARK.json is well formed;
- every workload, traced and untraced, emits exactly the metrics
  BENCHMARK.json names, each with its unit (short --seconds, so each
  run does its minimum of reps);
- two traced runs of one seed report the same modeled per-layer
  counters;
- without the simulator sources the command fails without a result.
"""

import functools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import aa  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench():
    return aa.load_benchmark()


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@functools.lru_cache(maxsize=None)
def run_bench(workload, trace, attempt=0):
    """One short run (seed 3); `attempt` tells repeated runs apart."""
    proc = subprocess.run(
        bench()["command"] + ["--workload", workload, "--seed", "3",
                              "--seconds", "0.2", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout


def host_timed(metric):
    """Per-layer metrics read off the host clock; the rest are modeled
    counters, which repeat exactly for a seed."""
    return metric["unit"] in ("s", "ns", "x") or \
        metric["name"] in ("sweep.busy_frac", "trace.overhead_frac")


class HelperTest(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        for values in ([1, 2], [3, 1, 2], list(range(10)),
                       [0.5, 9.25, 3.0, 3.0, 7.5, 1e-3]):
            want = statistics.quantiles(values, n=4)
            self.assertEqual(list(aa.quartiles(values)), want)

    def test_quartiles_of_one_value(self):
        self.assertEqual(aa.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread(self):
        self.assertAlmostEqual(aa.spread([1, 2, 4, 8, 16]), 10.5 / 4)
        self.assertEqual(aa.spread([5, 5, 5]), 0.0)
        self.assertEqual(aa.spread([0, 0, 0]), 0.0)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(aa.worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(aa.worse_by(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(aa.worse_by(100, 90, "higher"), 0.10)

    def test_evaluate_flags_modeled_drift(self):
        b = {"end_to_end": [
            {"name": "model_x", "unit": "ratio", "better": "lower",
             "bound": 0.1}]}
        ok_rows, ok = aa.evaluate(b, [{"model_x": [1.0, 1.0]},
                                      {"model_x": [1.0, 1.0]}])
        self.assertTrue(ok)
        _, ok = aa.evaluate(b, [{"model_x": [1.0, 1.0]},
                                {"model_x": [1.0, 1.01]}])
        self.assertFalse(ok)

    def test_evaluate_bounds_every_spread(self):
        b = {"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower",
             "bound": 0.1}]}
        _, ok = aa.evaluate(b, [{"setup_s": [1.0, 1.0, 1.0, 1.05]}])
        self.assertTrue(ok)
        _, ok = aa.evaluate(b, [{"setup_s": [1.0, 1.0, 2.0, 2.0]}])
        self.assertFalse(ok)


class SchemaTest(unittest.TestCase):
    def test_benchmark_json(self):
        b = bench()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertIn(b["run_seconds"], range(1, 61))
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = [w["name"] for w in b["workloads"]]
        for m in b["end_to_end"] + b["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in b["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_every_metric_emitted_with_its_unit(self):
        b = bench()
        for w in b["workloads"]:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    rc, stdout = run_bench(w["name"], trace)
                    self.assertEqual(rc, 0, stdout[-2000:])
                    result = last_json(stdout)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in b[key]}
                    got = {k: v["unit"] for k, v in
                           result["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)

    def test_modeled_layer_counters_repeat(self):
        b = bench()
        modeled = [m["name"] for m in b["per_layer"] if not host_timed(m)]
        for w in b["workloads"]:
            with self.subTest(workload=w["name"]):
                runs = [run_bench(w["name"], "1", attempt)
                        for attempt in (0, 1)]
                for rc, stdout in runs:
                    self.assertEqual(rc, 0, stdout[-2000:])
                first, second = (last_json(stdout)["metrics"]
                                 for _, stdout in runs)
                for name in modeled:
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"], name)


class BareCheckoutTest(unittest.TestCase):
    def test_fails_without_sources(self):
        b = bench()
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in b["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                b["command"] + ["--workload", b["workloads"][0]["name"],
                                "--seed", "1", "--seconds", "1",
                                "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
