"""Self-tests for the benchmark's percentile rule and compare verdicts.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class TailPercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        values = [float(i) for i in range(1, 101)]
        self.assertEqual(stats.tail_percentile(values, 90.0), (90.0, 90.0))
        self.assertEqual(stats.samples_beyond(values, 90.0), 10)

    def test_falls_back_to_the_highest_percentile_that_qualifies(self):
        values = [float(i) for i in range(1, 100)]  # 99 samples: p90 has 9
        self.assertEqual(stats.samples_beyond(values, 90.0), 9)
        self.assertEqual(stats.tail_percentile(values, 90.0), (75.0, 75.0))

    def test_highest_qualifying_percentile_wins(self):
        values = [float(i) for i in range(1, 1001)]
        self.assertEqual(stats.tail_percentile(values, 99.9)[0], 99.0)
        self.assertEqual(stats.tail_percentile(values, 90.0)[0], 90.0)

    def test_too_few_samples_give_none(self):
        self.assertIsNone(stats.tail_percentile([1.0] * 19))
        self.assertIsNone(stats.tail_percentile(
            [float(i) for i in range(19)]))
        self.assertEqual(
            stats.tail_percentile([float(i) for i in range(20)])[0], 50.0)

    def test_ties_at_the_top_are_not_beyond(self):
        values = [float(i) for i in range(85)] + [100.0] * 15
        self.assertEqual(stats.samples_beyond(values, 90.0), 0)
        self.assertEqual(stats.tail_percentile(values, 90.0)[0], 75.0)


class VerdictTest(unittest.TestCase):
    PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.3]

    def test_improved_when_nearly_every_pair_wins_beyond_the_spread(self):
        change = [v - 10.0 for v in self.PARENT]
        v = stats.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual(v["verdict"], "improved")
        self.assertEqual(v["won"], 1.0)

    def test_not_improved_below_nine_tenths_of_pairs(self):
        change = [v - 10.0 for v in self.PARENT]
        change[0] = change[1] = self.PARENT[0] + 1.0
        v = stats.verdict(self.PARENT, change, "lower", 0.1)
        self.assertEqual(v["won"], 0.8)
        self.assertNotEqual(v["verdict"], "improved")

    def test_worse_beyond_the_bound(self):
        change = [v * 1.2 for v in self.PARENT]
        self.assertEqual(
            stats.verdict(self.PARENT, change, "lower", 0.1)["verdict"],
            "worse")

    def test_unchanged_within_the_bound(self):
        change = [v * 1.02 for v in self.PARENT]
        self.assertEqual(
            stats.verdict(self.PARENT, change, "lower", 0.1)["verdict"],
            "unchanged")

    def test_unresolved_when_spread_exceeds_the_bound(self):
        parent = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0,
                  100.0]
        change = [v * 1.03 for v in reversed(parent)]
        self.assertEqual(
            stats.verdict(parent, change, "lower", 0.1)["verdict"],
            "unresolved")

    def test_higher_is_better_direction(self):
        change = [v + 10.0 for v in self.PARENT]
        self.assertEqual(
            stats.verdict(self.PARENT, change, "higher", 0.1)["verdict"],
            "improved")
        self.assertEqual(
            stats.verdict(change, self.PARENT, "higher", 0.1)["verdict"],
            "unchanged")
        self.assertEqual(
            stats.verdict([2.0 * v for v in self.PARENT], self.PARENT,
                          "higher", 0.1)["verdict"],
            "worse")

    def test_ties_count_for_neither_side(self):
        v = stats.verdict(self.PARENT, list(self.PARENT), "lower", 0.1)
        self.assertEqual(v["won"], 0.0)
        self.assertEqual(v["verdict"], "unchanged")

    def test_zero_baseline_judges_the_median(self):
        self.assertEqual(
            stats.verdict([0.0] * 4, [0.0, 0.0, 0.5, 0.0], "lower",
                          0.0)["verdict"],
            "unchanged")
        self.assertEqual(
            stats.verdict([0.0] * 4, [0.5] * 4, "lower", 0.0)["verdict"],
            "worse")

    def test_quartiles_match_statistics_quantiles(self):
        q1, q2, q3 = stats.quartiles(self.PARENT)
        self.assertLess(q1, q2)
        self.assertLess(q2, q3)
        self.assertAlmostEqual(
            stats.relative_spread(self.PARENT), (q3 - q1) / q2)


if __name__ == "__main__":
    unittest.main()
