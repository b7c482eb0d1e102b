#!/usr/bin/env python3
"""Byte-compares the bench outputs of two build trees.

Every bench that bench/CMakeLists.txt declares with eevfs_bench() runs
once in each tree, each in a fresh directory.  Its stdout and its
bench_results/<bench>.csv must be byte-identical between the two trees:

    python3 tools/bench_vs.py --base-build ../base/build [--build build]
                              [--out DIR]
    python3 tools/bench_vs.py --list SRC    # the bench names SRC declares

Prints every file that differs and exits 1 on any difference, including a
bench that is missing from a tree or exits non-zero in either.  The run
reports are not compared: their layout is versioned and may change on
purpose.  For the same reason the "(schema vN, ...)" note on the stdout
line that names the report is compared with the version masked.
tools/check.sh --bench-vs REF builds REF in a temporary worktree and runs
this against it, building in REF only the benches REF declares (--list
REF), so a bench the change adds shows up as missing from the base rather
than as a build error.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_NOTE = re.compile(r"\(schema v\d+, ")


def bench_names(root=ROOT):
    """The eevfs_bench() targets of bench/CMakeLists.txt."""
    with open(os.path.join(root, "bench", "CMakeLists.txt")) as f:
        return re.findall(r"^eevfs_bench\((\w+)\)", f.read(), re.M)


def run_benches(build, out, names):
    """Runs each bench of `build` in out/<bench>/, keeping its stdout in
    out/<bench>/stdout.txt.  Returns {bench: problem} for the benches
    that are missing or exit non-zero."""
    problems = {}
    for name in names:
        exe = os.path.abspath(os.path.join(build, "bench", name))
        cwd = os.path.join(out, name)
        os.makedirs(cwd, exist_ok=True)
        if not os.path.exists(exe):
            problems[name] = "no binary at " + exe
            continue
        proc = subprocess.run([exe], cwd=cwd,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        with open(os.path.join(cwd, "stdout.txt"), "wb") as f:
            f.write(proc.stdout)
        if proc.returncode != 0:
            problems[name] = "exit status %d" % proc.returncode
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


def compare(base, change, names):
    """The relative paths (<bench>/stdout.txt, <bench>/bench_results/
    <bench>.csv) whose contents differ between the two output trees; a
    file present on one side only differs (table1_testbed writes no CSV
    in either)."""
    differing = []
    for name in names:
        for rel, mask in ((os.path.join(name, "stdout.txt"), True),
                          (os.path.join(name, "bench_results",
                                        name + ".csv"), False)):
            old = read(os.path.join(base, rel), mask)
            new = read(os.path.join(change, rel), mask)
            if old != new:
                differing.append(rel)
    return differing


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
    if not args.base_build:
        parser.error("--base-build is required")
    out = args.out or tempfile.mkdtemp(prefix="eevfs-bench-vs-")
    problems = {}
    for side, build in (("base", args.base_build), ("change", args.build)):
        for name, what in run_benches(build, os.path.join(out, side),
                                      names).items():
            problems["%s %s" % (side, name)] = what
    differing = compare(os.path.join(out, "base"),
                        os.path.join(out, "change"), names)
    for key, what in sorted(problems.items()):
        print("FAILED   %s: %s" % (key, what))
    for rel in differing:
        print("DIFFERS  %s" % rel)
    print("%d benches, %d files compared, %d differ, %d runs failed "
          "(outputs in %s)" % (len(names), 2 * len(names), len(differing),
                               len(problems), out))
    return 1 if differing or problems else 0


if __name__ == "__main__":
    sys.exit(main())
