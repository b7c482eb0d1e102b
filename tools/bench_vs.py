#!/usr/bin/env python3
"""Byte-compares the bench outputs and traced CLI runs of two build trees.

Every bench that bench/CMakeLists.txt declares with eevfs_bench() runs
once in each tree, each in a fresh directory.  Its stdout and its
bench_results/<bench>.csv must be byte-identical between the two trees.
So must each case of cli_cases(): eevfs_cli runs it with --trace-out run
in a fresh directory, and its stdout and its run.trace.{jsonl,json}
files are compared:

    python3 tools/bench_vs.py --base-build ../base/build [--build build]
                              [--out DIR]
    python3 tools/bench_vs.py --list SRC    # the bench names SRC declares

Prints every file that differs and exits 1 on any difference, including a
bench or CLI binary that is missing from a tree or exits non-zero in
either.  The run reports are not compared: their layout is versioned and
may change on purpose.  For the same reason the "(schema vN, ...)" note
on the stdout line that names the report is compared with the version
masked.  tools/check.sh --bench-vs REF builds REF in a temporary worktree
and runs this against it, building in REF only eevfs_cli and the benches
REF declares (--list REF), so a bench the change adds shows up as missing
from the base rather than as a build error.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_NOTE = re.compile(r"\(schema v\d+, ")

# What each CLI case leaves in its directory, and compares.
CLI_FILES = ("stdout.txt", "run.trace.jsonl", "run.trace.json")


def bench_names(root=ROOT):
    """The eevfs_bench() targets of bench/CMakeLists.txt."""
    with open(os.path.join(root, "bench", "CMakeLists.txt")) as f:
        return re.findall(r"^eevfs_bench\((\w+)\)", f.read(), re.M)


def cli_cases(root=ROOT):
    """The traced eevfs_cli cases, (name, arguments).  Both trees read
    this checkout's chaos plan, whose cases reach the buffer-disk
    fallback and the settlement of a crashed node's serves, and its
    sample trace, which the trace_file case replays through the text
    loader.  A case runs --requests 1000 unless it sets --requests or
    replays a --trace."""
    plan = ["--chaos-plan", os.path.join(root, "examples", "chaos_plan.txt")]
    lossy = plan + ["--journal", "off", "--request-timeout", "3"]
    cases = [
        ("defaults", []),
        ("maid", ["--system", "maid"]),
        ("ec_chaos", ["--ec", "4,2", "--chaos-seed", "3",
                      "--journal", "commit"]),
        ("replicated_chaos", ["--replication", "2", "--chaos-seed", "7",
                              "--chaos-crashes", "4"]),
        ("plan", lossy),
        ("plan_ec", lossy + ["--ec", "4,2"]),
        ("plan_replicated_maid",
         lossy + ["--replication", "2", "--system", "maid"]),
        ("plan_web", ["--workload", "web", "--requests", "2000"] + plan +
         ["--request-timeout", "3", "--replication", "2"]),
        ("trace_file",
         ["--trace", os.path.join(root, "examples", "sample.trace")]),
    ]
    return [(name, args if "--requests" in args or "--trace" in args
             else ["--requests", "1000"] + args) for name, args in cases]


def run_in(cwd, argv):
    """Runs argv in cwd (created when missing), keeping its stdout in
    cwd/stdout.txt.  Returns what went wrong, or None."""
    os.makedirs(cwd, exist_ok=True)
    if not os.path.exists(argv[0]):
        return "no binary at " + argv[0]
    proc = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    with open(os.path.join(cwd, "stdout.txt"), "wb") as f:
        f.write(proc.stdout)
    if proc.returncode != 0:
        return "exit status %d" % proc.returncode
    return None


def run_benches(build, out, names):
    """Runs each bench of `build` in out/<bench>/, keeping its stdout in
    out/<bench>/stdout.txt.  Returns {bench: problem} for the benches
    that are missing or exit non-zero."""
    problems = {}
    for name in names:
        exe = os.path.abspath(os.path.join(build, "bench", name))
        problem = run_in(os.path.join(out, name), [exe])
        if problem:
            problems[name] = problem
    return problems


def run_cli(build, out, cases):
    """Runs each CLI case with `build`'s eevfs_cli in out/cli/<case>/,
    tracing to run.trace.*.  Returns {"cli/<case>": problem} for the
    cases whose binary is missing or exits non-zero."""
    exe = os.path.abspath(os.path.join(build, "examples", "eevfs_cli"))
    problems = {}
    for name, args in cases:
        problem = run_in(os.path.join(out, "cli", name),
                         [exe] + args + ["--trace-out", "run"])
        if problem:
            problems["cli/" + name] = problem
    return problems


def read(path, mask_schema=False):
    """A file's bytes, or None when it is missing."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return None
    if mask_schema:
        data = SCHEMA_NOTE.sub("(schema v*, ", data.decode()).encode()
    return data


def differing(base, change, files):
    """The relative paths among `files`, (path, mask_schema) pairs, whose
    contents differ between the two output trees; a file present on one
    side only differs."""
    return [rel for rel, mask in files
            if read(os.path.join(base, rel), mask) !=
            read(os.path.join(change, rel), mask)]


def compare(base, change, names):
    """The relative paths (<bench>/stdout.txt, <bench>/bench_results/
    <bench>.csv) whose contents differ between the two output trees; a
    file present on one side only differs (table1_testbed writes no CSV
    in either)."""
    files = []
    for name in names:
        files.append((os.path.join(name, "stdout.txt"), True))
        files.append((os.path.join(name, "bench_results", name + ".csv"),
                      False))
    return differing(base, change, files)


def compare_cli(base, change, cases):
    """The relative paths (cli/<case>/<file> for each of CLI_FILES) whose
    contents differ between the two output trees."""
    return differing(base, change,
                     [(os.path.join("cli", name, f), False)
                      for name, _ in cases for f in CLI_FILES])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base-build", help="build tree of the base")
    parser.add_argument("--build", default=os.path.join(ROOT, "build"),
                        help="build tree of the change (default: build/)")
    parser.add_argument("--out", help="where both trees' outputs go "
                                      "(default: a new temporary directory)")
    parser.add_argument("--list", metavar="SRC",
                        help="print the bench names the source tree SRC "
                             "declares, and exit")
    args = parser.parse_args(argv)
    if args.list:
        print(" ".join(bench_names(args.list)))
        return 0
    names = bench_names()
    cases = cli_cases()
    if not args.base_build:
        parser.error("--base-build is required")
    out = args.out or tempfile.mkdtemp(prefix="eevfs-bench-vs-")
    problems = {}
    for side, build in (("base", args.base_build), ("change", args.build)):
        side_out = os.path.join(out, side)
        found = run_benches(build, side_out, names)
        found.update(run_cli(build, side_out, cases))
        for name, what in found.items():
            problems["%s %s" % (side, name)] = what
    base, change = os.path.join(out, "base"), os.path.join(out, "change")
    differ = (compare(base, change, names) +
              compare_cli(base, change, cases))
    for key, what in sorted(problems.items()):
        print("FAILED   %s: %s" % (key, what))
    for rel in differ:
        print("DIFFERS  %s" % rel)
    print("%d benches and %d CLI cases, %d files compared, %d differ, "
          "%d runs failed (outputs in %s)"
          % (len(names), len(cases),
             2 * len(names) + len(CLI_FILES) * len(cases), len(differ),
             len(problems), out))
    return 1 if differ or problems else 0


if __name__ == "__main__":
    sys.exit(main())
