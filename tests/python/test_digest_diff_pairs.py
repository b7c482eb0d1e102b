#!/usr/bin/env python3
"""Checks the paired-run arithmetic of tools/digest_diff.py --pairs
(quartiles, wins, verdicts, the failed-operation count, digest agreement)
on fixed numbers, its run-report field diff on fixed reports, and its
--workloads filter; runs no perfbench.

    python3 tests/python/test_digest_diff_pairs.py
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
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


class WorkloadFilter(unittest.TestCase):
    NAMES = ["paper_pf", "hot_read_ram", "ec_write_crash", "dc_stream_1024"]

    def test_keeps_the_declared_order(self):
        self.assertEqual(
            digest_diff.select_workloads(self.NAMES,
                                         "dc_stream_1024,paper_pf"),
            ["paper_pf", "dc_stream_1024"])
        self.assertEqual(
            digest_diff.select_workloads(self.NAMES, "ec_write_crash"),
            ["ec_write_crash"])

    def test_an_unknown_name_is_named(self):
        with self.assertRaisesRegex(ValueError, "unknown workload nosuch"):
            digest_diff.select_workloads(self.NAMES, "paper_pf,nosuch")

    def test_an_unknown_name_exits_2_before_any_run(self):
        # The checkout itself is a valid --base; the filter refuses the
        # name before perfbench is built or run.
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "digest_diff.py"),
             "--base", ROOT, "--workloads", "nosuch", "--pairs", "1"],
            capture_output=True, text=True, timeout=30)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("unknown workload nosuch", proc.stderr)
        self.assertEqual(proc.stdout, "")


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


class ReportFields(unittest.TestCase):
    V2 = {"schema_version": 2, "runs": [{
        "name": "r", "meta": {"wall_seconds": 1.5},
        "metrics": {"energy_joules": 10.0, "requests": 4},
        "availability": {"failed_requests": 1},
        "ram": {"enabled": False, "hits": 0},
        "counters": [
            {"name": "client.failed_requests.count", "kind": "counter",
             "value": 1},
            {"name": "disk.queue_wait.us", "kind": "histogram", "value": 2,
             "count": 2, "mean": 3.0, "p50": 4, "p95": 4, "p99": 4,
             "min": 2, "max": 4}]}]}

    def fields(self, report):
        with tempfile.TemporaryDirectory() as checkout:
            out = os.path.join(checkout, ".bench_build", "out")
            os.makedirs(out)
            with open(os.path.join(out, "w-seed1.run_report.json"),
                      "w") as f:
                json.dump(report, f)
            return digest_diff.report_fields(checkout, "w", 1)

    def test_reads_every_section_of_a_v2_report_but_meta(self):
        fields = self.fields(self.V2)
        self.assertEqual(fields["metrics.requests"], 4)
        self.assertEqual(fields["availability.failed_requests"], 1)
        self.assertEqual(fields["ram.hits"], 0)
        self.assertEqual(fields["client.failed_requests.count"], 1)
        self.assertEqual(fields["disk.queue_wait.us:p95"], 4)
        self.assertNotIn("meta.wall_seconds", fields)

    def test_a_v2_base_diffs_against_a_v3_change(self):
        v3 = json.loads(json.dumps(self.V2))
        run = v3["runs"][0]
        del run["availability"], run["ram"]
        run["counters"][1]["sum"] = 6
        run["metrics"]["energy_joules"] = 11.0
        moved = digest_diff.differing_fields(self.fields(self.V2),
                                             self.fields(v3))
        self.assertEqual(moved, [
            "availability.failed_requests (1 -> -)",
            "disk.queue_wait.us:sum (- -> 6)",
            "metrics.energy_joules (10 -> 11)",
            "ram.enabled (False -> -)",
            "ram.hits (0 -> -)"])


if __name__ == "__main__":
    unittest.main()
