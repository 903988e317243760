"""Tests of the comparison command's arithmetic: quartiles, the verdict
rule, and the handling of failed runs. Run with:
python3 -m unittest discover -s perfbench/tests"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from compare import failures_by, quartiles, result_of, values_by, verdict  # noqa: E402


class QuartilesTest(unittest.TestCase):
    def test_matches_statistics_exclusive_method(self):
        values = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(quartiles(values), tuple(statistics.quantiles(values, n=4)))
        # Exclusive method on 1..10: positions 2.75, 5.5, 8.25.
        self.assertEqual(quartiles(values), (2.75, 5.5, 8.25))

    def test_single_value(self):
        self.assertEqual(quartiles([4.0]), (4.0, 4.0, 4.0))


def paired(parent, change):
    return list(zip(parent, change))


class VerdictTest(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_clear_improvement_lower_is_better(self):
        change = [v - 10.0 for v in self.parent]
        outcome, wins = verdict(self.parent, change, paired(self.parent, change), "lower", 0.1)
        self.assertEqual((outcome, wins), ("improved", 10))

    def test_improvement_for_higher_is_better(self):
        change = [v + 10.0 for v in self.parent]
        outcome, _ = verdict(self.parent, change, paired(self.parent, change), "higher", 0.1)
        self.assertEqual(outcome, "improved")

    def test_ties_count_for_neither_side(self):
        # Every pair tied: no wins, medians equal -> within bound.
        outcome, wins = verdict(self.parent, list(self.parent),
                                paired(self.parent, self.parent), "lower", 0.1)
        self.assertEqual((outcome, wins), ("within bound", 0))
        # Eight wins and two ties of ten pairs: 8 < 9, so not improved.
        change = [v - 10.0 for v in self.parent[:8]] + self.parent[8:]
        outcome, wins = verdict(self.parent, change, paired(self.parent, change), "lower", 0.1)
        self.assertEqual((outcome, wins), ("within bound", 8))

    def test_nine_of_ten_wins_with_a_tie_is_improved(self):
        change = [v - 10.0 for v in self.parent[:9]] + self.parent[9:]
        outcome, wins = verdict(self.parent, change, paired(self.parent, change), "lower", 0.1)
        self.assertEqual((outcome, wins), ("improved", 9))

    def test_win_smaller_than_parent_spread_is_not_improved(self):
        change = [v - 0.01 for v in self.parent]
        outcome, wins = verdict(self.parent, change, paired(self.parent, change), "lower", 0.1)
        self.assertEqual((outcome, wins), ("within bound", 10))

    def test_worse_beyond_bound(self):
        change = [v * 1.2 for v in self.parent]
        outcome, _ = verdict(self.parent, change, paired(self.parent, change), "lower", 0.1)
        self.assertEqual(outcome, "worse")
        change = [v * 0.8 for v in self.parent]
        outcome, _ = verdict(self.parent, change, paired(self.parent, change), "higher", 0.1)
        self.assertEqual(outcome, "worse")

    def test_worse_within_bound(self):
        change = [v * 1.05 for v in self.parent]
        outcome, _ = verdict(self.parent, change, paired(self.parent, change), "lower", 0.1)
        self.assertEqual(outcome, "within bound")

    def test_wide_parent_spread_is_unresolved(self):
        parent = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        change = [v * 1.02 for v in parent]
        outcome, _ = verdict(parent, change, paired(parent, change), "lower", 0.1)
        self.assertEqual(outcome, "unresolved")

    def test_wide_spread_but_every_change_run_better_is_resolved(self):
        parent = [100.0, 130.0, 110.0, 125.0, 105.0, 120.0, 115.0, 101.0, 129.0, 111.0]
        change = [v - 40.0 for v in parent]  # every change run < every parent run
        outcome, _ = verdict(parent, change, paired(parent, change), "lower", 0.1)
        self.assertEqual(outcome, "improved")
        change = [95.0 + 0.1 * i for i in range(10)]
        outcome, wins = verdict(parent, change, paired(parent, change), "lower", 0.1)
        self.assertEqual(wins, 10)
        self.assertNotEqual(outcome, "unresolved")

    def test_more_failures_withhold_improved(self):
        change = [v - 10.0 for v in self.parent]
        pairs = paired(self.parent, change)
        outcome, _ = verdict(self.parent, change, pairs, "lower", 0.1, 0, 0)
        self.assertEqual(outcome, "improved")
        outcome, _ = verdict(self.parent, change, pairs, "lower", 0.1, 0, 3)
        self.assertEqual(outcome, "unresolved")
        # Fewer failures than the parent do not hold a gain back.
        outcome, _ = verdict(self.parent, change, pairs, "lower", 0.1, 3, 1)
        self.assertEqual(outcome, "improved")


def run(seed, value, correct=True, failed=0, trace=0):
    return {"workload": "w", "seed": seed, "trace": trace,
            "result": {"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": {"m": {"value": value, "unit": "s"}}}}


class FailedRunsTest(unittest.TestCase):
    def test_incorrect_runs_are_left_out(self):
        runs = [run(1, 1.0), run(2, 99.0, correct=False, failed=2), run(3, 3.0)]
        runs.append({"workload": "w", "seed": 4, "trace": 0, "exit_code": 2, "result": None})
        self.assertEqual(values_by(runs, 0), {"w": {"m": {1: 1.0, 3: 3.0}}})
        # Two failed operations plus one for the run with no result; two
        # runs left out.
        self.assertEqual(failures_by(runs, 0), {"w": (3, 2)})

    def test_result_of_a_run_that_printed_none(self):
        self.assertIsNone(result_of("perfbench: build failed\n"))
        self.assertIsNone(result_of(""))
        line = '{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
        self.assertEqual(result_of("log line\n" + line + "\n")["failed"], 1)


if __name__ == "__main__":
    unittest.main()
