#!/usr/bin/env python3
"""Checks the comparison logic of tools/bench_vs.py on fixed files and
stand-in bench and CLI scripts; builds nothing and makes no worktree.

    python3 tests/python/test_bench_vs.py
"""

import contextlib
import importlib.util
import io
import os
import stat
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SPEC = importlib.util.spec_from_file_location(
    "bench_vs", os.path.join(ROOT, "tools", "bench_vs.py"))
bench_vs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_vs)

STDOUT = ("table\nCSV: bench_results/b.csv\n"
          "run report: bench_results/b.run_report.json (schema v%d, 2 runs)\n")


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


class Compare(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base = os.path.join(self.tmp.name, "base")
        self.change = os.path.join(self.tmp.name, "change")
        for side in (self.base, self.change):
            write(os.path.join(side, "b", "stdout.txt"), STDOUT % 2)
            write(os.path.join(side, "b", "bench_results", "b.csv"),
                  "x,y\n1,2\n")

    def tearDown(self):
        self.tmp.cleanup()

    def differing(self):
        return bench_vs.compare(self.base, self.change, ["b"])

    def test_identical_outputs_do_not_differ(self):
        self.assertEqual(self.differing(), [])

    def test_a_changed_csv_cell_differs(self):
        write(os.path.join(self.change, "b", "bench_results", "b.csv"),
              "x,y\n1,3\n")
        self.assertEqual(self.differing(),
                         [os.path.join("b", "bench_results", "b.csv")])

    def test_a_changed_stdout_line_differs(self):
        write(os.path.join(self.change, "b", "stdout.txt"),
              (STDOUT % 2).replace("table", "tab1e"))
        self.assertEqual(self.differing(), [os.path.join("b", "stdout.txt")])

    def test_the_report_schema_version_alone_does_not_differ(self):
        write(os.path.join(self.change, "b", "stdout.txt"), STDOUT % 3)
        self.assertEqual(self.differing(), [])

    def test_the_run_count_on_the_report_line_still_differs(self):
        write(os.path.join(self.change, "b", "stdout.txt"),
              (STDOUT % 3).replace("2 runs", "3 runs"))
        self.assertEqual(self.differing(), [os.path.join("b", "stdout.txt")])

    def test_a_file_on_one_side_only_differs(self):
        os.remove(os.path.join(self.base, "b", "bench_results", "b.csv"))
        self.assertEqual(self.differing(),
                         [os.path.join("b", "bench_results", "b.csv")])

    def test_a_csv_neither_side_writes_does_not_differ(self):
        for side in (self.base, self.change):
            os.remove(os.path.join(side, "b", "bench_results", "b.csv"))
        self.assertEqual(self.differing(), [])


class CompareCli(unittest.TestCase):
    CASES = [("plan", ["--requests", "1000"])]

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base = os.path.join(self.tmp.name, "base")
        self.change = os.path.join(self.tmp.name, "change")
        for side in (self.base, self.change):
            for f in bench_vs.CLI_FILES:
                write(os.path.join(side, "cli", "plan", f), f + "\n")

    def tearDown(self):
        self.tmp.cleanup()

    def differing(self):
        return bench_vs.compare_cli(self.base, self.change, self.CASES)

    def test_identical_runs_do_not_differ(self):
        self.assertEqual(self.differing(), [])

    def test_the_files_are_stdout_and_the_two_traces(self):
        self.assertEqual(bench_vs.CLI_FILES,
                         ("stdout.txt", "run.trace.jsonl", "run.trace.json"))

    def test_a_differing_trace_file_differs(self):
        write(os.path.join(self.change, "cli", "plan", "run.trace.json"),
              "other\n")
        self.assertEqual(self.differing(),
                         [os.path.join("cli", "plan", "run.trace.json")])

    def test_a_missing_trace_file_differs(self):
        os.remove(os.path.join(self.base, "cli", "plan", "run.trace.jsonl"))
        self.assertEqual(self.differing(),
                         [os.path.join("cli", "plan", "run.trace.jsonl")])

    def test_the_schema_note_is_not_masked_in_cli_stdout(self):
        write(os.path.join(self.change, "cli", "plan", "stdout.txt"),
              "(schema v3, 1 runs)\n")
        write(os.path.join(self.base, "cli", "plan", "stdout.txt"),
              "(schema v2, 1 runs)\n")
        self.assertEqual(self.differing(),
                         [os.path.join("cli", "plan", "stdout.txt")])


class CliCases(unittest.TestCase):
    def test_the_fixed_case_list(self):
        cases = dict(bench_vs.cli_cases())
        self.assertEqual(list(cases), [
            "defaults", "maid", "ec_chaos", "replicated_chaos", "plan",
            "plan_ec", "plan_replicated_maid", "plan_web", "trace_file"])
        plan = os.path.join(ROOT, "examples", "chaos_plan.txt")
        self.assertTrue(os.path.exists(plan))
        # The trace-file case replays this checkout's sample trace alone:
        # the trace sets the request count.
        trace = os.path.join(ROOT, "examples", "sample.trace")
        self.assertTrue(os.path.exists(trace))
        self.assertEqual(cases.pop("trace_file"), ["--trace", trace])
        for name, args in cases.items():
            # Every case sets its request count once; only the web case
            # changes it.
            self.assertEqual(args.count("--requests"), 1, name)
            requests = args[args.index("--requests") + 1]
            self.assertEqual(requests,
                             "2000" if name == "plan_web" else "1000", name)
            self.assertEqual(plan in args, name.startswith("plan"), name)
            self.assertNotIn("--trace-out", args)
        self.assertEqual(cases["defaults"], ["--requests", "1000"])
        self.assertEqual(cases["plan"][2:], [
            "--chaos-plan", plan, "--journal", "off",
            "--request-timeout", "3"])

    def test_each_case_traces_to_run_in_its_own_directory(self):
        with tempfile.TemporaryDirectory() as tmp:
            exe = os.path.join(tmp, "build", "examples", "eevfs_cli")
            # Writes the two traces under the --trace-out prefix (the
            # last argument) and echoes its arguments.
            write(exe, '#!/bin/sh\necho "$@"\n'
                       'for last; do :; done\n'
                       'for s in jsonl json; do '
                       'echo t > "$last.trace.$s"; done\n')
            os.chmod(exe, os.stat(exe).st_mode | stat.S_IXUSR)
            out = os.path.join(tmp, "out")
            cases = [("a", ["--requests", "1000"]), ("b", ["--system", "x"])]
            self.assertEqual(bench_vs.run_cli(os.path.join(tmp, "build"),
                                              out, cases), {})
            for name, args in cases:
                cwd = os.path.join(out, "cli", name)
                with open(os.path.join(cwd, "stdout.txt")) as f:
                    self.assertEqual(f.read(),
                                     " ".join(args) + " --trace-out run\n")
                for f in bench_vs.CLI_FILES:
                    self.assertTrue(os.path.exists(os.path.join(cwd, f)), f)

    def test_a_missing_cli_is_reported_per_case(self):
        with tempfile.TemporaryDirectory() as tmp:
            problems = bench_vs.run_cli(os.path.join(tmp, "build"),
                                        os.path.join(tmp, "out"),
                                        [("a", []), ("b", [])])
            self.assertEqual(sorted(problems), ["cli/a", "cli/b"])


class Run(unittest.TestCase):
    def test_runs_each_bench_in_its_own_directory(self):
        with tempfile.TemporaryDirectory() as tmp:
            exe = os.path.join(tmp, "build", "bench", "b")
            write(exe, "#!/bin/sh\necho ran\nmkdir -p bench_results\n"
                       "echo 1,2 > bench_results/b.csv\n")
            os.chmod(exe, os.stat(exe).st_mode | stat.S_IXUSR)
            out = os.path.join(tmp, "out")
            problems = bench_vs.run_benches(os.path.join(tmp, "build"), out,
                                            ["b", "gone"])
            self.assertEqual(list(problems), ["gone"])
            with open(os.path.join(out, "b", "stdout.txt")) as f:
                self.assertEqual(f.read(), "ran\n")
            self.assertTrue(os.path.exists(
                os.path.join(out, "b", "bench_results", "b.csv")))

    def test_a_failing_bench_is_reported(self):
        with tempfile.TemporaryDirectory() as tmp:
            exe = os.path.join(tmp, "build", "bench", "b")
            write(exe, "#!/bin/sh\nexit 3\n")
            os.chmod(exe, os.stat(exe).st_mode | stat.S_IXUSR)
            problems = bench_vs.run_benches(os.path.join(tmp, "build"),
                                            os.path.join(tmp, "out"), ["b"])
            self.assertEqual(problems, {"b": "exit status 3"})


class Names(unittest.TestCase):
    def test_every_declared_bench(self):
        with tempfile.TemporaryDirectory() as tmp:
            write(os.path.join(tmp, "bench", "CMakeLists.txt"),
                  "eevfs_bench(a)\neevfs_bench(b)\n"
                  "add_executable(micro_benchmarks micro_benchmarks.cpp)\n")
            self.assertEqual(bench_vs.bench_names(tmp), ["a", "b"])
        names = bench_vs.bench_names()
        self.assertIn("table1_testbed", names)
        self.assertIn("tiered_cache", names)
        self.assertNotIn("micro_benchmarks", names)
        self.assertEqual(len(names), len(set(names)))

    def test_lists_the_benches_another_source_tree_declares(self):
        # What the base tree is built with: a bench only the change
        # declares is then missing from the base, not a build error.
        with tempfile.TemporaryDirectory() as tmp:
            write(os.path.join(tmp, "bench", "CMakeLists.txt"),
                  "eevfs_bench(old)\n")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                self.assertEqual(bench_vs.main(["--list", tmp]), 0)
            self.assertEqual(out.getvalue(), "old\n")


if __name__ == "__main__":
    unittest.main()
