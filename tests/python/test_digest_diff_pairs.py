#!/usr/bin/env python3
"""Checks the paired-run arithmetic of tools/digest_diff.py --pairs
(quartiles, wins, verdicts, the failed-operation count, digest agreement)
on fixed numbers; runs no perfbench.

    python3 tests/python/test_digest_diff_pairs.py
"""

import importlib.util
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SPEC = importlib.util.spec_from_file_location(
    "digest_diff", os.path.join(ROOT, "tools", "digest_diff.py"))
digest_diff = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(digest_diff)


class Quartiles(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        self.assertEqual(digest_diff.quartiles([4, 1, 3, 2, 5]), (2, 3, 4))
        self.assertEqual(digest_diff.quartiles([1, 2, 3, 4]),
                         (1.75, 2.5, 3.25))

    def test_single_value(self):
        self.assertEqual(digest_diff.quartiles([7.0]), (7.0, 7.0, 7.0))


class PairStats(unittest.TestCase):
    BASE = [63.5, 63.7, 63.6, 63.8, 63.7, 63.6, 63.9, 63.7, 63.5, 63.6]

    def test_clear_memory_gain(self):
        this = [27.3, 27.2, 27.3, 27.4, 27.2, 27.3, 27.3, 27.2, 27.4, 27.3]
        stats = digest_diff.pair_stats(self.BASE, this, "lower", 0.15)
        self.assertEqual(stats["wins"], 10)
        self.assertEqual(stats["verdict"], "gain")
        self.assertAlmostEqual(stats["base"][1], 63.65)
        self.assertAlmostEqual(stats["this"][1], 27.3)

    def test_ties_count_for_neither_side(self):
        stats = digest_diff.pair_stats([5, 5, 5], [5, 4, 6], "lower", 0.05)
        self.assertEqual(stats["wins"], 1)
        self.assertEqual(stats["verdict"], "within bound")

    def test_nine_of_ten_wins_needs_more_than_the_base_spread(self):
        base = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        this = [b - 0.5 for b in base[:9]] + [base[9] + 1]
        stats = digest_diff.pair_stats(base, this, "lower", 0.5)
        self.assertEqual(stats["wins"], 9)
        # Medians 14.5 and 14.0 differ by less than the base IQR (4.5).
        self.assertNotEqual(stats["verdict"], "gain")

    def test_higher_is_better_flips_the_direction(self):
        stats = digest_diff.pair_stats([0.90] * 10, [0.80] * 10, "higher",
                                       0.01)
        self.assertEqual(stats["wins"], 0)
        self.assertEqual(stats["verdict"], "worse")
        stats = digest_diff.pair_stats([0.80] * 10, [0.90] * 10, "higher",
                                       0.01)
        self.assertEqual(stats["verdict"], "gain")

    def test_worse_by_more_than_the_bound(self):
        stats = digest_diff.pair_stats([1.0] * 4, [1.2] * 4, "lower", 0.15)
        self.assertEqual(stats["verdict"], "worse")
        stats = digest_diff.pair_stats([1.0] * 4, [1.1] * 4, "lower", 0.15)
        self.assertEqual(stats["verdict"], "within bound")

    def test_more_failed_operations_withhold_a_gain(self):
        this = [27.3] * 10
        stats = digest_diff.pair_stats(self.BASE, this, "lower", 0.15,
                                       more_failed=True)
        self.assertEqual(stats["wins"], 10)
        self.assertEqual(stats["verdict"],
                         "gain withheld: more failed operations")

    def test_any_rise_in_failed_operations_is_worse(self):
        # The failed-operation row has bound 0.
        stats = digest_diff.pair_stats([0] * 10, [0] * 9 + [1], "lower", 0.0)
        self.assertEqual(stats["verdict"], "within bound")
        stats = digest_diff.pair_stats([0] * 10, [1] * 10, "lower", 0.0)
        self.assertEqual(stats["verdict"], "worse")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        base = [1.0, 2.0, 1.0, 2.0]
        this = [1.5, 1.5, 1.5, 1.5]
        stats = digest_diff.pair_stats(base, this, "lower", 0.25)
        self.assertEqual(stats["verdict"], "unresolved")


class DigestAgreement(unittest.TestCase):
    def test_counts_pairs_with_equal_digests(self):
        base = ["a1", "b2", "c3", "d4"]
        self.assertEqual(digest_diff.digest_agreement(base, base), 4)
        self.assertEqual(
            digest_diff.digest_agreement(base, ["a1", "xx", "c3", "yy"]), 2)

    def test_pairs_are_matched_by_position(self):
        # Equal digests in different pairs do not agree.
        self.assertEqual(
            digest_diff.digest_agreement(["a1", "b2"], ["b2", "a1"]), 0)
        self.assertEqual(digest_diff.digest_agreement([], []), 0)


if __name__ == "__main__":
    unittest.main()
