#!/usr/bin/env python3
"""Compares the perfbench RunMetrics digests of two source checkouts.

    python3 tools/digest_diff.py --base <checkout> [--seeds 1,2] \
        [--require-equal] [--pairs N]

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

With --pairs N it measures instead of comparing digests (the paired-run
rule of the choosing-metrics guide, section 8): per workload and seed it
runs N pairs of `--seconds <run_seconds from BENCHMARK.json> --trace 0`
invocations, alternating which checkout runs first, and prints for every
`end_to_end` metric of BENCHMARK.json, and for the `failed` operation
count of the JSON result line, each side's median with its quartiles
[Q1, Q3], the change's wins out of N (ties count for neither side) and a
verdict, and after each table how many of the N pairs had equal digests
(every pair, for a change that keeps simulated output bit-identical):

- gain: the change wins at least 0.9 N pairs and its median is better
  than the base's by more than the base's interquartile range; a gain
  that comes with a higher median failed count is printed as "gain
  withheld: more failed operations" instead;
- worse: the change's median is worse than the base's by more than the
  metric's bound, taken as a fraction of the base's median (the failed
  count has bound 0: any rise in its median is worse);
- unresolved: neither, and the base's interquartile range is wider than
  the bound, unless every run of the change beat every base run;
- within bound: anything else.

Exit codes: 0 when every run produced a digest (and, with --require-equal,
every pair matches; with --pairs, no row is worse); 1 when a run failed,
a required pair differs or a row is worse; 2 on bad arguments.
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


def end_to_end(root):
    """The `end_to_end` metric declarations and `run_seconds` of
    BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        config = json.load(f)
    return config["end_to_end"], config["run_seconds"]


def result_metrics(stdout):
    """{metric: value} from the JSON result line, or None if absent."""
    lines = stdout.splitlines()
    try:
        metrics = json.loads(lines[-1])["metrics"]
        return {name: float(m["value"]) for name, m in metrics.items()}
    except (IndexError, KeyError, TypeError, ValueError, AttributeError):
        return None


def failed_ops(stdout):
    """The `failed` operation count of the JSON result line, or None if
    absent."""
    try:
        return int(json.loads(stdout.splitlines()[-1])["failed"])
    except (IndexError, KeyError, TypeError, ValueError):
        return None


def peak_rss_mb(stdout):
    """`peak_rss_mb` from the JSON result line, or None if absent."""
    metrics = result_metrics(stdout)
    return None if metrics is None else metrics.get("peak_rss_mb")


def perfbench(checkout, workload, seed, seconds):
    """(stdout, digest) of one perfbench invocation; the digest is None if
    the run failed."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    match = DIGEST_RE.search(proc.stdout)
    if proc.returncode != 0 or match is None:
        print("digest_diff: %s (seed %d) failed in %s" %
              (workload, seed, checkout), file=sys.stderr)
        return proc.stdout, None
    return proc.stdout, match.group(1)


def run(checkout, workload, seed):
    """(digest, peak_rss_mb, report fields) of one perfbench invocation;
    the digest is None if the run failed."""
    stdout, digest = perfbench(checkout, workload, seed, 1)
    if digest is None:
        return None, None, None
    return (digest, peak_rss_mb(stdout),
            report_fields(checkout, workload, seed))


def quartiles(values):
    """(Q1, median, Q3) of `values`, interpolating linearly between the
    closest ranks."""
    ordered = sorted(values)

    def at(q):
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def pair_stats(base, this, better, bound, more_failed=False):
    """Paired runs of one metric, base[i] and this[i] being pair i: each
    side's quartiles, the change's wins and the verdict (see the module
    docstring).  `better` is "lower" or "higher"; `bound` is a fraction
    of the base's median.  `more_failed` withholds a gain: the change
    failed more operations than the base."""
    sign = 1.0 if better == "lower" else -1.0
    b1, b_med, b3 = quartiles(base)
    t1, t_med, t3 = quartiles(this)
    wins = sum(1 for b, t in zip(base, this) if sign * (b - t) > 0)
    gain = sign * (b_med - t_med)  # > 0: the change's median is better
    spread = b3 - b1
    limit = bound * abs(b_med)
    every_run_better = all(sign * (b - t) > 0 for b in base for t in this)
    if wins >= 0.9 * len(base) and gain > spread:
        verdict = ("gain withheld: more failed operations" if more_failed
                   else "gain")
    elif -gain > limit:
        verdict = "worse"
    elif spread > limit and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"base": (b1, b_med, b3), "this": (t1, t_med, t3), "wins": wins,
            "verdict": verdict}


def digest_agreement(base, this):
    """How many pairs, base[i] and this[i] being the digests of pair i,
    have equal digests."""
    return sum(1 for b, t in zip(base, this) if b == t)


def run_pairs(base, workload, seed, pairs, seconds):
    """{side: [(metrics, failed operations, digest) of each pair's run]},
    sides "base" and "this", or None if a run failed.  Even pairs run the
    base first, odd pairs this checkout."""
    runs = {"base": [], "this": []}
    for i in range(pairs):
        order = [("base", base), ("this", ROOT)]
        for side, checkout in order if i % 2 == 0 else order[::-1]:
            stdout, digest = perfbench(checkout, workload, seed, seconds)
            metrics = result_metrics(stdout) if digest else None
            failed = failed_ops(stdout) if digest else None
            if metrics is None or failed is None:
                return None
            runs[side].append((metrics, failed, digest))
    return runs


def show_quartiles(q):
    return "%.6g [%.6g, %.6g]" % (q[1], q[0], q[2])


def main_pairs(base, names, seeds, pairs):
    """The --pairs mode; returns the exit code."""
    metrics, seconds = end_to_end(ROOT)
    failed = worse = 0
    for workload in names:
        for seed in seeds:
            print("### %s, seed %d: %d pairs of %g s runs" %
                  (workload, seed, pairs, seconds))
            print()
            runs = run_pairs(base, workload, seed, pairs, seconds)
            if runs is None:
                print("run failed")
                print()
                failed += 1
                continue
            print("| metric | base median [Q1, Q3] | this median [Q1, Q3] "
                  "| change wins | verdict |")
            print("| --- | --- | --- | --- | --- |")
            failures = pair_stats([f for _, f, _ in runs["base"]],
                                  [f for _, f, _ in runs["this"]], "lower",
                                  0.0)
            more_failed = failures["verdict"] == "worse"
            rows = [(m["name"], m["unit"],
                     pair_stats([r[m["name"]] for r, _, _ in runs["base"]],
                                [r[m["name"]] for r, _, _ in runs["this"]],
                                m["better"], m["bound"], more_failed))
                    for m in metrics]
            rows.append(("failed", "ops", failures))
            for name, unit, stats in rows:
                worse += stats["verdict"] == "worse"
                print("| %s (%s) | %s | %s | %d/%d | %s |" %
                      (name, unit, show_quartiles(stats["base"]),
                       show_quartiles(stats["this"]), stats["wins"], pairs,
                       stats["verdict"]))
            print()
            print("digests equal in %d/%d pairs" %
                  (digest_agreement([d for _, _, d in runs["base"]],
                                    [d for _, _, d in runs["this"]]), pairs))
            print()
    print("%d metric rows worse; %d workload/seed cells failed" %
          (worse, failed))
    return 1 if failed or worse else 0


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
    parser.add_argument("--pairs", type=int, default=0,
                        help="measure N alternating pairs per workload and "
                        "seed instead of comparing digests")
    args = parser.parse_args()
    base = os.path.abspath(args.base)
    if not os.path.isfile(os.path.join(base, "perfbench", "run.py")):
        parser.error("%s has no perfbench/run.py" % base)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error("--seeds takes comma-separated integers")
    if args.pairs < 0 or (args.pairs and args.require_equal):
        parser.error("--pairs takes N >= 1 and excludes --require-equal")
    names = workloads(ROOT)
    if args.pairs:
        return main_pairs(base, names, seeds, args.pairs)

    rows = []
    for workload in names:
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
