#!/usr/bin/env python3
"""Compares the perfbench RunMetrics digests of two source checkouts.

    python3 tools/digest_diff.py --base <checkout> [--seeds 1,2] \
        [--require-equal]

For every workload named in BENCHMARK.json (read from this checkout) and
every seed, runs

    python3 <root>/perfbench/run.py --workload W --seed S --seconds 1 --trace 0

once in this checkout and once in <checkout>, and prints a markdown table
of the two `digest` lines.  The digest hashes RunMetrics plus the whole
counter snapshot, so a refactor that keeps behaviour bit-identical leaves
every row equal; a change that alters simulated output on purpose does
not.  Each checkout builds its own perfbench binary under .bench_build/;
build output goes to stderr.

Exit codes: 0 when every run produced a digest (and, with --require-equal,
every pair matches); 1 when a run failed or a required pair differs; 2 on
bad arguments.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST_RE = re.compile(r"^digest ([0-9a-f]+)\b", re.MULTILINE)


def workloads(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def digest(checkout, workload, seed):
    """The digest one perfbench invocation prints, or None if it failed."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    match = DIGEST_RE.search(proc.stdout)
    if proc.returncode != 0 or match is None:
        print("digest_diff: %s (seed %d) failed in %s" %
              (workload, seed, checkout), file=sys.stderr)
        return None
    return match.group(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="source checkout to compare against")
    parser.add_argument("--seeds", default="1,2",
                        help="comma-separated seeds (default 1,2)")
    parser.add_argument("--require-equal", action="store_true",
                        help="exit 1 unless every digest pair matches")
    args = parser.parse_args()
    base = os.path.abspath(args.base)
    if not os.path.isfile(os.path.join(base, "perfbench", "run.py")):
        parser.error("%s has no perfbench/run.py" % base)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error("--seeds takes comma-separated integers")

    rows = []
    for workload in workloads(ROOT):
        for seed in seeds:
            rows.append((workload, seed, digest(base, workload, seed),
                         digest(ROOT, workload, seed)))

    print("| workload | seed | base | this checkout | |")
    print("| --- | --- | --- | --- | --- |")
    failed = differ = 0
    for workload, seed, old, new in rows:
        if old is None or new is None:
            verdict = "run failed"
            failed += 1
        elif old == new:
            verdict = "equal"
        else:
            verdict = "DIFFERS"
            differ += 1
        print("| %s | %d | %s | %s | %s |" %
              (workload, seed, old or "-", new or "-", verdict))
    print()
    print("%d of %d digest pairs equal; %d differ; %d runs failed" %
          (len(rows) - differ - failed, len(rows), differ, failed))
    if failed or (args.require_equal and differ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
