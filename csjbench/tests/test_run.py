"""Unit tests of run.py's aggregation and result checks.

Run: python3 -m unittest discover -s csjbench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402


SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "join_s", "unit": "s", "better": "lower", "bound": 0.15},
    ],
    "per_layer": [{"name": "core.links", "unit": "count", "better": "lower"}],
}


def result(metrics):
    return {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(run.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_is_iqr_over_median(self):
        values = list(range(1, 11))  # exclusive method: q1 2.75, q3 8.25
        self.assertAlmostEqual(run.spread(values), (8.25 - 2.75) / 5.5)

    def test_spread_of_constant_and_zero_median(self):
        self.assertEqual(run.spread([12.0] * 10), 0.0)
        self.assertEqual(run.spread([0.0] * 4), 0.0)


class SummarizeTest(unittest.TestCase):
    def test_rows_follow_declaration_order_and_judge_against_bound(self):
        samples = {
            "join_s": [1.0, 1.01, 0.99, 1.02, 0.98],   # spread 0.03 < 0.05
            "setup_s": [0.1, 0.2, 0.3, 0.4, 0.5],      # spread 0.67 > 0.25/3
        }
        rows = run.summarize(samples, SPEC["end_to_end"])
        self.assertEqual([r["name"] for r in rows], ["setup_s", "join_s"])
        setup, join = rows
        self.assertFalse(setup["steady"])
        self.assertTrue(join["steady"])
        self.assertAlmostEqual(join["median"], 1.0)

    def test_wide_spread_is_not_steady(self):
        rows = run.summarize({"join_s": [1.0, 1.5, 0.5, 1.2, 0.8]},
                             SPEC["end_to_end"])
        self.assertFalse(rows[0]["steady"])

    def test_per_layer_rows_have_no_verdict(self):
        rows = run.summarize({"core.links": [5, 5, 5]}, SPEC["per_layer"])
        self.assertIsNone(rows[0]["steady"])
        self.assertIsNone(rows[0]["bound"])

    def test_single_sample_is_skipped(self):
        self.assertEqual(run.summarize({"join_s": [1.0]}, SPEC["end_to_end"]),
                         [])


class CheckResultTest(unittest.TestCase):
    def test_accepts_declared_metrics(self):
        run.check_result(result({"setup_s": (1, "s"), "join_s": (2, "s")}),
                         SPEC, trace=0)
        run.check_result(result({"core.links": (7, "count")}), SPEC, trace=1)

    def test_rejects_missing_extra_or_misunit_metrics(self):
        with self.assertRaises(RuntimeError):
            run.check_result(result({"setup_s": (1, "s")}), SPEC, trace=0)
        with self.assertRaises(RuntimeError):
            run.check_result(result({"setup_s": (1, "s"), "join_s": (2, "ms")}),
                             SPEC, trace=0)
        with self.assertRaises(RuntimeError):
            run.check_result(result({"core.links": (7, "count"),
                                     "extra": (1, "s")}), SPEC, trace=1)

    def test_rejects_unexpected_keys(self):
        bad = result({"core.links": (7, "count")})
        bad["note"] = "x"
        with self.assertRaises(RuntimeError):
            run.check_result(bad, SPEC, trace=1)


if __name__ == "__main__":
    unittest.main()
