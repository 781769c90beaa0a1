"""Tests for the benchmark's metric helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertTrue(metrics.supports(1000, 99.0))
        self.assertFalse(metrics.supports(999, 99.0))
        self.assertTrue(metrics.supports(200, 95.0))
        self.assertFalse(metrics.supports(199, 95.0))

    def test_picks_highest_supported_rung(self):
        samples = list(range(1, 1001))  # 1000 samples: p99 is the top rung
        p, value = metrics.tail_percentile(samples)
        self.assertEqual(p, 99.0)
        self.assertAlmostEqual(value, metrics.percentile(samples, 99.0))
        p, _ = metrics.tail_percentile(list(range(500)))
        self.assertEqual(p, 95.0)
        p, _ = metrics.tail_percentile(list(range(10000)))
        self.assertEqual(p, 99.9)

    def test_too_few_samples(self):
        self.assertIsNone(metrics.tail_percentile(list(range(39))))

    def test_percentile_interpolates(self):
        self.assertEqual(metrics.percentile([3, 1, 2], 50.0), 2)
        self.assertEqual(metrics.percentile([0, 10], 25.0), 2.5)
        with self.assertRaises(ValueError):
            metrics.percentile([], 50.0)

    def test_end_to_end_needs_1000_steps(self):
        raw = {"setup_s": [1.0], "peak_rss_mb": 1.0,
               "untraced": {"step_ms": [1.0] * 999, "wall_s": 1.0, "rollout_ms": [],
                            "counts": {"work.items": 5}}}
        with self.assertRaises(ValueError):
            metrics.end_to_end(raw)
        raw["untraced"]["step_ms"].append(2.0)
        got = metrics.end_to_end(raw)
        self.assertAlmostEqual(got["throughput_per_s"], 5.0)  # 5 items, 1000 steps of 1 ms
        self.assertEqual(set(got), {"throughput_per_s", "setup_s", "peak_rss_mb"})

    def test_fleet_throughput_counts_whole_rollouts(self):
        raw = {"setup_s": [1.0], "peak_rss_mb": 1.0,
               "untraced": {"step_ms": [1.0] * 1000, "wall_s": 1.0,
                            "rollout_ms": [10.0, 20.0, 30.0],
                            "counts": {"work.items": 30}}}
        # 10 device updates per rollout over the p5 rollout time, 11 ms.
        self.assertAlmostEqual(metrics.end_to_end(raw)["throughput_per_s"], 10 / 0.011)

    def test_setup_is_the_median(self):
        raw = {"setup_s": [5.0, 1.0, 3.0, 2.0, 4.0], "peak_rss_mb": 1.0,
               "untraced": {"step_ms": [1.0] * 1000, "wall_s": 1.0, "rollout_ms": [],
                            "counts": {"work.items": 5}}}
        self.assertEqual(metrics.end_to_end(raw)["setup_s"], 3.0)


class NameValidationTest(unittest.TestCase):
    def test_accepts_repo_names(self):
        for name in ("delivered_pps", "dataplane.micro_ns_p50", "a", "9x", "x" * 64):
            self.assertEqual(metrics.validate_name(name), name)

    def test_rejects_bad_names(self):
        for name in ("", "_lead", ".lead", "has space", "x" * 65, "slash/no", None, 3):
            with self.assertRaises(ValueError, msg=repr(name)):
                metrics.validate_name(name)

    def test_units(self):
        for unit in ("ms", "1/s", "count", "%", "sim_ns", "nJ"):
            self.assertEqual(metrics.validate_unit(unit), unit)
        for unit in ("", "x" * 17, "m s"):
            with self.assertRaises(ValueError):
                metrics.validate_unit(unit)


class ResultLineTest(unittest.TestCase):
    SPEC = [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}]

    def test_emits_exact_shape(self):
        line = metrics.result_line(True, 1000, 0,
                                   {"latency_ms": 1.2034, "setup_s": 0.8127}, self.SPEC)
        self.assertNotIn("\n", line)
        got = json.loads(line)
        self.assertEqual(set(got), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(got["metrics"]["latency_ms"], {"value": 1.2034, "unit": "ms"})
        self.assertEqual(got["metrics"]["setup_s"]["unit"], "s")
        self.assertIs(got["correct"], True)

    def test_keeps_all_digits(self):
        value = 1.0 / 3.0
        got = json.loads(metrics.result_line(True, 1, 0, {"latency_ms": value,
                                                          "setup_s": 1.0}, self.SPEC))
        self.assertEqual(got["metrics"]["latency_ms"]["value"], value)

    def test_rejects_missing_extra_and_nonfinite(self):
        with self.assertRaises(ValueError):
            metrics.result_line(True, 1, 0, {"latency_ms": 1.0}, self.SPEC)
        with self.assertRaises(ValueError):
            metrics.result_line(True, 1, 0, {"latency_ms": 1.0, "setup_s": 1.0,
                                             "other": 2.0}, self.SPEC)
        with self.assertRaises(ValueError):
            metrics.result_line(True, 1, 0, {"latency_ms": math.nan,
                                             "setup_s": 1.0}, self.SPEC)
        with self.assertRaises(ValueError):
            metrics.result_line(True, 1, 0, {"latency_ms": True,
                                             "setup_s": 1.0}, self.SPEC)

    def test_rejects_bad_counts(self):
        ok = {"latency_ms": 1.0, "setup_s": 1.0}
        with self.assertRaises(ValueError):
            metrics.result_line(True, 0, 0, ok, self.SPEC)
        with self.assertRaises(ValueError):
            metrics.result_line(True, 5, -1, ok, self.SPEC)


class GateTest(unittest.TestCase):
    @staticmethod
    def phase(**counts):
        base = {"net.injected": 10, "net.delivered": 10, "net.dropped": 0}
        base.update(counts)
        return {"errors": [], "failed": 0, "counts": base}

    def test_clean_run_passes(self):
        self.assertEqual(metrics.gate_errors({"untraced": self.phase()}), [])

    def test_loss_and_reported_errors_fail(self):
        raw = {"untraced": self.phase(**{"net.delivered": 9, "net.dropped": 1})}
        self.assertTrue(metrics.gate_errors(raw))
        raw = {"untraced": self.phase()}
        raw["untraced"]["errors"].append("no_blackhole: packet 7 dropped")
        self.assertTrue(metrics.gate_errors(raw))

    def test_traced_counts_must_match(self):
        raw = {"untraced": self.phase(), "traced": self.phase(**{"sim.events": 3})}
        errors = metrics.gate_errors(raw)
        self.assertEqual(len(errors), 1)
        self.assertIn("sim.events", errors[0])


if __name__ == "__main__":
    unittest.main()
