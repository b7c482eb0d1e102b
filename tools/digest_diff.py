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
not.  Each row also shows the `peak_rss_mb` both runs reported on their
JSON result line, and its change in percent; memory never affects the
exit code.  Each checkout builds its own perfbench binary under
.bench_build/; build output goes to stderr.

For every pair that differs, the table is followed by the run-report
fields whose values differ, each with both values.  They are read from
the report each invocation writes to
<checkout>/.bench_build/out/<workload>-seed<S>.run_report.json: the
metrics, availability and ram objects, and every counter by name (a
histogram's statistics as <name>:<stat>).  The host-dependent meta
object is left out.

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


def peak_rss_mb(stdout):
    """`peak_rss_mb` from the JSON result line, or None if absent."""
    lines = stdout.splitlines()
    try:
        return float(json.loads(lines[-1])["metrics"]["peak_rss_mb"]["value"])
    except (IndexError, KeyError, TypeError, ValueError):
        return None


def run(checkout, workload, seed):
    """(digest, peak_rss_mb, report fields) of one perfbench invocation;
    the digest is None if the run failed."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    match = DIGEST_RE.search(proc.stdout)
    if proc.returncode != 0 or match is None:
        print("digest_diff: %s (seed %d) failed in %s" %
              (workload, seed, checkout), file=sys.stderr)
        return None, None, None
    return (match.group(1), peak_rss_mb(proc.stdout),
            report_fields(checkout, workload, seed))


def report_fields(checkout, workload, seed):
    """{field: value} of the run report a perfbench invocation wrote, or
    None if it cannot be read."""
    path = os.path.join(checkout, ".bench_build", "out",
                        "%s-seed%d.run_report.json" % (workload, seed))
    try:
        with open(path) as f:
            report = json.load(f)["runs"][0]
    except (OSError, ValueError, KeyError, IndexError):
        return None
    fields = {}
    for section in ("metrics", "availability", "ram"):
        for key, value in report.get(section, {}).items():
            fields["%s.%s" % (section, key)] = value
    for sample in report.get("counters", []):
        name = sample["name"]
        fields[name] = sample.get("value")
        if sample.get("kind") == "histogram":
            for stat in ("count", "mean", "p50", "p95", "p99", "min", "max"):
                fields["%s:%s" % (name, stat)] = sample.get(stat)
    return fields


def show(value):
    """A field value as text; integral floats print as integers."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return "-" if value is None else str(value)


def differing_fields(old, new):
    """'name (old -> new)' for every field whose value differs."""
    if old is None or new is None:
        return ["run report missing"]
    return ["%s (%s -> %s)" % (name, show(old.get(name)), show(new.get(name)))
            for name in sorted(set(old) | set(new))
            if old.get(name) != new.get(name)]


def mb(value):
    return "-" if value is None else "%.2f" % value


def delta_pct(old, new):
    if old is None or new is None or old == 0:
        return "-"
    return "%+.1f%%" % (100.0 * (new - old) / old)


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
            rows.append((workload, seed, run(base, workload, seed),
                         run(ROOT, workload, seed)))

    print("| workload | seed | base | this checkout | | base MB "
          "| this MB | peak RSS Δ |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    failed = differ = 0
    moved = []
    for workload, seed, (old, old_mb, old_fields), (new, new_mb,
                                                   new_fields) in rows:
        if old is None or new is None:
            verdict = "run failed"
            failed += 1
        elif old == new:
            verdict = "equal"
        else:
            verdict = "DIFFERS"
            differ += 1
            moved.append((workload, seed,
                          differing_fields(old_fields, new_fields)))
        print("| %s | %d | %s | %s | %s | %s | %s | %s |" %
              (workload, seed, old or "-", new or "-", verdict, mb(old_mb),
               mb(new_mb), delta_pct(old_mb, new_mb)))
    print()
    for workload, seed, fields in moved:
        print("%s seed %d, run-report fields that differ (base -> this "
              "checkout):" % (workload, seed))
        for field in fields or ["none (the digest differs elsewhere)"]:
            print("- %s" % field)
        print()
    print("%d of %d digest pairs equal; %d differ; %d runs failed" %
          (len(rows) - differ - failed, len(rows), differ, failed))
    if failed or (args.require_equal and differ):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
