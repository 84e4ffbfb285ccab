#!/usr/bin/env python3
"""Checks tools/pairs.py's order and arithmetic on fixture results.

    python3 tools/test_pairs.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pairs  # noqa: E402

END_TO_END = [
    {"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.25},
    {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def result(p50, throughput, failed=0):
    """A benchmark result line as perfbench prints it."""
    return {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "p50_us": {"value": p50, "unit": "us"},
            "throughput": {"value": throughput, "unit": "1/s"},
        },
    }


def records(parent, change, throughput=None):
    """Pair records from per-pair p50 values; throughput defaults to 1e6 / p50."""
    throughput = throughput or ([1e6 / p for p in parent], [1e6 / c for c in change])
    return [
        {
            "seed": 101 + i,
            "first": "parent" if i % 2 == 0 else "change",
            "parent": result(p, tp),
            "change": result(c, tc),
        }
        for i, (p, c, tp, tc) in enumerate(zip(parent, change, *throughput))
    ]


def row(rows, name):
    return next(r for r in rows if r["name"] == name)


class OrderTest(unittest.TestCase):
    def test_pairs_alternate_which_side_runs_first_on_one_seed(self):
        calls = []

        def run(side, seed):
            calls.append((side, seed))
            return result(100.0, 1e4)

        got = pairs.collect(run, 4, 7)
        self.assertEqual(calls, [
            ("parent", 7), ("change", 7),
            ("change", 8), ("parent", 8),
            ("parent", 9), ("change", 9),
            ("change", 10), ("parent", 10),
        ])
        self.assertEqual([r["first"] for r in got], ["parent", "change", "parent", "change"])
        self.assertEqual([r["seed"] for r in got], [7, 8, 9, 10])


class ArithmeticTest(unittest.TestCase):
    def test_quartiles_interpolate_between_order_statistics(self):
        self.assertEqual(pairs.quartiles([4.0, 1.0, 3.0, 2.0]), (1.75, 2.5, 3.25))
        self.assertEqual(pairs.quartiles([5.0]), (5.0, 5.0, 5.0))
        q1, median, q3 = pairs.quartiles([10.0, 20.0, 30.0, 40.0, 50.0])
        self.assertEqual((q1, median, q3), (20.0, 30.0, 40.0))

    def test_a_change_that_wins_every_pair_beyond_the_spread_is_a_gain(self):
        parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
        change = [p * 0.9 for p in parent]
        rows = pairs.analyse(records(parent, change), END_TO_END)
        p50 = row(rows, "p50_us")
        # Sorted parent: 97 98 99 100 100 100 101 101 102 103.
        self.assertEqual(p50["parent_median"], 100.0)
        self.assertAlmostEqual(p50["change_median"], 90.0)
        self.assertAlmostEqual(p50["ratio"], 0.9)
        self.assertEqual(p50["wins"], 10)
        # Q1 = 99 + 0.25 * (100 - 99), Q3 = 101 + 0.75 * (101 - 101).
        self.assertAlmostEqual(p50["iqr_share"], (101.0 - 99.25) / 100.0)
        self.assertEqual(p50["status"], "gain")
        self.assertTrue(all(abs(r - 0.9) < 1e-12 for r in p50["pair_ratios"]))
        # Throughput is better when higher: the change wins it too.
        throughput = row(rows, "throughput")
        self.assertEqual(throughput["wins"], 10)
        self.assertEqual(throughput["status"], "gain")
        self.assertGreater(throughput["ratio"], 1.0)

    def test_ties_count_for_neither_side_and_eight_wins_are_no_gain(self):
        parent = [100.0] * 10
        change = [90.0] * 8 + [100.0, 100.0]
        p50 = row(pairs.analyse(records(parent, change), END_TO_END), "p50_us")
        self.assertEqual(p50["wins"], 8)
        self.assertEqual(p50["iqr_share"], 0.0)
        self.assertEqual(p50["status"], "held")

    def test_a_median_worse_by_more_than_the_bound_is_worse(self):
        parent = [100.0, 101.0, 99.0, 100.0]
        change = [130.0, 128.0, 131.0, 127.0]
        rows = pairs.analyse(records(parent, change), END_TO_END)
        p50 = row(rows, "p50_us")
        self.assertEqual(p50["wins"], 0)
        self.assertAlmostEqual(p50["ratio"], 129.0 / 100.0)
        self.assertEqual(p50["status"], "worse")
        # 1e6/129 against 1e6/100: throughput fell by 22.5 %, within 25 %.
        self.assertEqual(row(rows, "throughput")["status"], "held")

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [60.0, 100.0, 140.0, 100.0, 70.0, 130.0]
        change = [p * 1.05 for p in parent]
        p50 = row(pairs.analyse(records(parent, change), END_TO_END), "p50_us")
        # Sorted parent 60 70 100 100 130 140: Q1 77.5, Q3 122.5.
        self.assertAlmostEqual(p50["iqr_share"], 45.0 / 100.0)
        self.assertEqual(p50["status"], "unresolved")

    def test_first_runs_that_read_worse_are_counted(self):
        # Pairs 0 and 2 run the parent first, 1 and 3 the change.
        parent = [110.0, 100.0, 110.0, 100.0]
        change = [100.0, 110.0, 100.0, 100.0]
        p50 = row(pairs.analyse(records(parent, change), END_TO_END), "p50_us")
        # The first run read the higher p50 in pairs 0, 1 and 2; pair 3 tied.
        self.assertEqual(p50["first_worse"], 3)
        self.assertEqual(p50["wins"], 2)

    def test_the_report_lists_order_failures_and_every_metric(self):
        got = records([100.0, 100.0], [90.0, 90.0])
        got[1]["change"] = result(90.0, 1e6 / 90.0, failed=2)
        text = pairs.report("fleet_stream", got, pairs.analyse(got, END_TO_END))
        self.assertIn("2 pairs, seeds 101-102", text)
        self.assertIn("PC, CP", text)
        self.assertIn("change: 2 operations failed, 1 runs not correct", text)
        self.assertIn("parent: 0 operations failed, 0 runs not correct", text)
        lines = text.splitlines()
        self.assertTrue(any(line.startswith("p50_us") and "0.900" in line for line in lines))
        self.assertTrue(any(line.strip().startswith("throughput") for line in lines))


if __name__ == "__main__":
    unittest.main()
