#!/usr/bin/env python3
"""Tests of the benchmark itself: its statistics helpers, and a tiny-size
smoke run of every workload that checks the output schema and that a
corrupted expected value trips the output checks.

    python3 perfbench/test_perfbench.py

The smoke runs build the C++ program on first use, as run.py does.
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import stats  # noqa: E402

WORKLOADS = ("mf-stage2", "durable-churn", "market-sim")


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 0)

    def test_tail_needs_ten_samples_beyond(self):
        # 100 samples leave exactly ten beyond the p90 rank.
        self.assertEqual(stats.tail_percentile(list(range(100)), 90), 89)
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(99)), 90)
        with self.assertRaises(ValueError):
            stats.tail_percentile([], 90)
        self.assertEqual(stats.tail_percentile(list(range(20)), 50), 9)
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(19)), 50)


class SelfTimeTest(unittest.TestCase):
    def test_union_of_overlaps(self):
        self.assertEqual(stats.union_length([]), 0)
        self.assertEqual(stats.union_length([(0, 10), (5, 15), (20, 30)]), 25)
        self.assertEqual(stats.union_length([(20, 30), (0, 10), (2, 3)]), 20)

    def test_self_time_clips_children(self):
        self.assertEqual(stats.self_time((0, 100), []), 100)
        # Parallel children count once; parts outside the parent are ignored.
        self.assertEqual(stats.self_time((0, 100), [(10, 40), (20, 50), (90, 120)]), 50)
        self.assertEqual(stats.self_time((0, 100), [(200, 300)]), 100)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_match_stats(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
                         stats.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         stats.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))


def run_bench(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"] + list(extra),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_schema(self, result, table):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [name for name, _, _ in table])
        for name, unit, _ in table:
            metric = result["metrics"][name]
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], unit)
            self.assertIsInstance(metric["value"], (int, float))

    def test_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run_bench(workload, 0)
                self.check_schema(result, stats.END_TO_END)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

                traced = run_bench(workload, 1)
                self.check_schema(traced, stats.PER_LAYER)
                self.assertTrue(traced["correct"])
                layer = {k: v["value"] for k, v in traced["metrics"].items()}
                training = workload != "market-sim"
                self.assertEqual(layer["apps.process_range_ms"] > 0, training)
                self.assertEqual(layer["agileml.clock_self_ms"] > 0, training)
                self.assertEqual(layer["bidbrain.decide_us.p50"] > 0, not training)
                self.assertEqual(layer["ps.checkpoint_ms"] > 0, workload == "durable-churn")
                if workload == "durable-churn":
                    for depth in (1, 2, 3):
                        self.assertGreater(layer["agileml.recover_ms.d%d" % depth], 0)

    def test_corrupted_expectation_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run_bench(workload, 0, "--corrupt")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
