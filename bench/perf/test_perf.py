#!/usr/bin/env python3
"""Unit tests for bench/perf/run.py's statistics and BENCHMARK.json.

  python3 bench/perf/test_perf.py

Standalone (stdlib unittest); not registered with ctest.
"""

import importlib.util
import json
import re
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perf_run", HERE / "run.py")
perf = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf)


def span(i, name, ts, dur, parent=None):
    return {"name": name, "ts": ts, "dur": dur,
            "args": {"id": i, "parent": parent}}


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(perf.tail_percentile(120), 90.0)  # 12 beyond p90
        self.assertEqual(perf.tail_percentile(100), 90.0)  # exactly 10
        self.assertEqual(perf.tail_percentile(99), 50.0)   # 9.9 beyond p90
        self.assertEqual(perf.tail_percentile(1000), 99.0)
        self.assertEqual(perf.tail_percentile(10000), 99.9)

    def test_too_few_samples_for_any_tail(self):
        self.assertIsNone(perf.tail_percentile(5))
        self.assertIsNone(perf.tail_percentile(19))
        self.assertEqual(perf.tail_percentile(20), 50.0)

    def test_samples_beyond(self):
        self.assertEqual(perf.samples_beyond(120, 90), 12)
        self.assertEqual(perf.samples_beyond(10000, 99.9), 10)

    def test_tail_value(self):
        self.assertEqual(perf.tail([float(i) for i in range(1, 251)]),
                         (90.0, 225.0))  # 25 beyond
        self.assertEqual(perf.tail([float(i) for i in range(1, 41)]),
                         (50.0, 20.0))
        # Too few samples for any tail: the nearest-rank median.
        self.assertEqual(perf.tail([3.0, 1.0, 2.0, 9.0]), (50.0, 2.0))

    def test_nearest_rank(self):
        values = list(range(1, 121))
        self.assertEqual(perf.percentile(values, 90), 108)
        self.assertEqual(perf.percentile(values, 50), 60)
        self.assertEqual(perf.percentile([7.0], 90), 7.0)


class MedianAndSpread(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(perf.median(values), 3.0)
        q1, q2, q3 = perf.quartiles(values)
        self.assertEqual((q1, q2, q3), (1.5, 3.0, 4.5))
        self.assertAlmostEqual(perf.spread(values), 1.0)

    def test_constant_sample_has_no_spread(self):
        self.assertEqual(perf.spread([2.0] * 10), 0.0)
        self.assertEqual(perf.quartiles([4.0]), (4.0, 4.0, 4.0))


class OperationParts(unittest.TestCase):
    def test_sum_of_part_medians(self):
        parts = {"a": [1.0, 2.0, 30.0], "b": [10.0, 50.0, 11.0]}
        self.assertEqual(perf.op_ms_p50(parts), 2.0 + 11.0)
        self.assertEqual(perf.op_totals(parts), [11.0, 52.0, 41.0])

    def test_single_part_is_the_median(self):
        self.assertEqual(perf.op_ms_p50({"job": [3.0, 1.0, 2.0]}), 2.0)

    def test_end_to_end_tail_is_taken_over_whole_operations(self):
        raw = {"setup_s": [0.3, 0.1, 0.2], "rss_kb": 2048,
               "rss_children_kb": 1024,
               "op_ms": {"a": [float(i) for i in range(1, 21)],
                         "b": [100.0] * 20}}
        e2e = perf.end_to_end(raw)
        self.assertEqual(e2e["setup_s"], 0.2)
        self.assertEqual(e2e["op_ms_p50"], 10.5 + 100.0)
        self.assertEqual(e2e["op_ms_tail"], 110.0)  # p50: 10th of 20 totals
        self.assertEqual(e2e["rss_mb"], 3.0)


class SelfTime(unittest.TestCase):
    def test_children_subtracted_as_a_union(self):
        events = [
            span(0, "root", 0, 100),
            span(1, "a", 10, 20, parent=0),   # [10, 30)
            span(2, "b", 20, 20, parent=0),   # [20, 40) overlaps a
            span(3, "c", 90, 30, parent=0),   # [90, 120) clipped to 100
            span(4, "a", 12, 5, parent=1),    # grandchild: only a's
        ]
        st = perf.self_times(events)
        self.assertAlmostEqual(st["root"], 100 - 30 - 10)
        self.assertAlmostEqual(st["a"], 20 - 5 + 5)  # two "a" spans summed
        self.assertAlmostEqual(st["b"], 20)
        self.assertAlmostEqual(st["c"], 30)

    def test_leaf_keeps_its_duration(self):
        self.assertEqual(perf.self_times([span(0, "x", 5, 7)]), {"x": 7})


class Bounds(unittest.TestCase):
    def test_lower_is_better(self):
        self.assertTrue(perf.within_bound(100.0, 109.0, "lower", 0.10))
        self.assertFalse(perf.within_bound(100.0, 111.0, "lower", 0.10))
        self.assertTrue(perf.within_bound(100.0, 50.0, "lower", 0.0))

    def test_higher_is_better(self):
        self.assertTrue(perf.within_bound(100.0, 91.0, "higher", 0.10))
        self.assertFalse(perf.within_bound(100.0, 89.0, "higher", 0.10))
        self.assertTrue(perf.within_bound(100.0, 150.0, "higher", 0.0))

    def test_worsening_sign(self):
        self.assertAlmostEqual(perf.worsening(10.0, 12.0, "lower"), 0.2)
        self.assertAlmostEqual(perf.worsening(10.0, 12.0, "higher"), -0.2)


class RepeatVerdict(unittest.TestCase):
    STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]   # spread 1.5%

    def test_steady_sets_within_bound(self):
        self.assertEqual(perf.verdict(self.STEADY, self.STEADY, "lower", 0.1),
                         "ok")

    def test_drift_beyond_bound_fails_in_the_metric_direction(self):
        slower = [v * 1.15 for v in self.STEADY]
        self.assertEqual(perf.verdict(self.STEADY, slower, "lower", 0.1),
                         "FAIL")
        self.assertEqual(perf.verdict(slower, self.STEADY, "lower", 0.1),
                         "ok")
        self.assertEqual(perf.verdict(slower, self.STEADY, "higher", 0.1),
                         "FAIL")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [80.0, 100.0, 120.0, 90.0, 110.0]  # spread 30%
        self.assertEqual(perf.verdict(noisy, self.STEADY, "lower", 0.1),
                         "unresolved")
        self.assertEqual(perf.verdict(self.STEADY, noisy, "lower", 0.1),
                         "unresolved")
        self.assertEqual(perf.verdict(noisy, noisy, "lower", 0.35), "ok")


class BenchmarkJson(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    @classmethod
    def setUpClass(cls):
        with open(HERE.parents[1] / "BENCHMARK.json") as f:
            cls.doc = json.load(f)

    def test_schema(self):
        d = self.doc
        self.assertEqual(set(d), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(d["command"], ["python3", "bench/perf/run.py"])
        self.assertEqual(d["paths"], ["bench/perf"])
        self.assertTrue(1 <= d["run_seconds"] <= 60)
        self.assertTrue(2 <= len(d["workloads"]) <= 8)
        self.assertTrue(1 <= len(d["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(d["per_layer"]) <= 128)

    def test_names_units_and_bounds(self):
        d = self.doc
        names = [w["name"] for w in d["workloads"]]
        for w in d["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in d["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in d["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in d["end_to_end"] + d["per_layer"]:
            self.assertRegex(m["name"], self.NAME)
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))

    def test_setup_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.doc["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in e2e.values()))


if __name__ == "__main__":
    unittest.main()
