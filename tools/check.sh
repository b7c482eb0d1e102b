#!/usr/bin/env bash
# One-shot verification: configure, build, test, lint, and (optionally)
# sanitizer builds and the perf smoke.  Run from anywhere inside the
# repo.  CI (.github/workflows/ci.yml) drives every job through this
# script so a green local run means a green pipeline.
#
#   tools/check.sh              # build + ctest + eevfs-lint + clang-tidy*
#   tools/check.sh --asan       # ... plus an ASan+UBSan build & test run
#   tools/check.sh --tsan       # ... plus a TSan build of the thread-pool
#                               #     stress test (EEVFS_TSAN=ON)
#   tools/check.sh --perf       # ... plus tools/perf_step.sh: emits
#                               #     build/BENCH_perf.json (hard-fails if
#                               #     missing) and, when a committed
#                               #     BENCH_perf.json baseline exists, runs
#                               #     tools/perf_compare.py (warn-only;
#                               #     see docs/perf.md); then one short
#                               #     perfbench run per BENCHMARK.json
#                               #     workload, which fails on a build
#                               #     error or a failed correctness check
#   tools/check.sh --digest-vs REF  # ... plus tools/digest_diff.py
#                               #     --require-equal against git ref
#                               #     REF, checked out in a temporary
#                               #     worktree: every perfbench digest
#                               #     must match (behaviour-preserving
#                               #     refactors; see docs/perf.md); each
#                               #     row also shows both peak_rss_mb
#                               #     figures (warn-only)
#   tools/check.sh --build-type Debug   # configure with another build type
#   tools/check.sh --no-tidy    # skip clang-tidy even if installed
#   tools/check.sh --label-timing   # split ctest by label, time each
#                               #     slice against a 600 s budget, and
#                               #     append a table to
#                               #     $GITHUB_STEP_SUMMARY when set
#
# *clang-tidy runs only on files changed vs the merge-base with the
#  default branch (falls back to all of src/ outside a git checkout), and
#  is skipped with a notice when the binary is not installed.
set -euo pipefail

cd "$(git rev-parse --show-toplevel 2>/dev/null || dirname "$0")/."

RUN_ASAN=0
RUN_TSAN=0
RUN_TIDY=1
RUN_PERF=0
LABEL_TIMING=0
LABEL_BUDGET_S="${LABEL_BUDGET_S:-600}"
BUILD_TYPE=Release
DIGEST_REF=""
while [ $# -gt 0 ]; do
  case "$1" in
    --asan) RUN_ASAN=1 ;;
    --tsan) RUN_TSAN=1 ;;
    --perf) RUN_PERF=1 ;;
    --no-tidy) RUN_TIDY=0 ;;
    --label-timing) LABEL_TIMING=1 ;;
    --digest-vs)
      shift
      [ $# -gt 0 ] || { echo "--digest-vs needs a git ref" >&2; exit 2; }
      DIGEST_REF="$1"
      ;;
    --build-type)
      shift
      [ $# -gt 0 ] || { echo "--build-type needs a value" >&2; exit 2; }
      BUILD_TYPE="$1"
      ;;
    *)
      echo "usage: tools/check.sh [--asan] [--tsan] [--perf]" \
           "[--digest-vs REF] [--build-type TYPE] [--no-tidy]" \
           "[--label-timing]" >&2
      exit 2
      ;;
  esac
  shift
done

JOBS="$(nproc 2>/dev/null || echo 2)"

step() { printf '\n== %s ==\n' "$*"; }

step "configure + build (build/, $BUILD_TYPE)"
cmake -B build -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE" > /dev/null
cmake --build build -j "$JOBS"

CTEST_LABELS="unit obs fault lint determinism golden perf"
if [ "$LABEL_TIMING" = 1 ]; then
  step "ctest split by label (budget ${LABEL_BUDGET_S}s per label)"
  TIMING_ROWS=""
  BUDGET_BLOWN=0
  run_label() { # <display name> <ctest selector args...>
    local name="$1" start elapsed
    shift
    start="$(date +%s)"
    ctest --test-dir build --output-on-failure -j "$JOBS" "$@"
    elapsed=$(( $(date +%s) - start ))
    printf '   label %-12s %5ss\n' "$name" "$elapsed"
    TIMING_ROWS="${TIMING_ROWS}| ${name} | ${elapsed}s |"$'\n'
    if [ "$elapsed" -gt "$LABEL_BUDGET_S" ]; then
      echo "label '$name' blew the ${LABEL_BUDGET_S}s budget (${elapsed}s)" >&2
      BUDGET_BLOWN=1
    fi
  }
  for label in $CTEST_LABELS; do
    run_label "$label" -L "^${label}\$"
  done
  # Catch-all slice: the example smoke tests carry no label.
  run_label "unlabelled" -LE "$(echo "$CTEST_LABELS" | tr ' ' '|')"
  if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
      echo "### ctest label timing (budget ${LABEL_BUDGET_S}s)"
      echo "| label | time |"
      echo "| --- | --- |"
      printf '%s' "$TIMING_ROWS"
    } >> "$GITHUB_STEP_SUMMARY"
  fi
  if [ "$BUDGET_BLOWN" != 0 ]; then
    echo "FAIL: a ctest label exceeded its ${LABEL_BUDGET_S}s budget" >&2
    exit 1
  fi
else
  step "ctest (unit + obs + fault + lint + determinism + examples)"
  ctest --test-dir build --output-on-failure -j "$JOBS"
fi

step "eevfs-lint (whole tree)"
./build/tools/eevfs_lint/eevfs_lint \
  --metrics-doc docs/observability.md --json build/lint_report.json \
  src bench examples tests tools

step "docs check (markdown links + metrics drift + DAG drift)"
python3 tools/docs_check.py

if [ "$RUN_TIDY" = 1 ]; then
  if command -v clang-tidy > /dev/null 2>&1; then
    step "clang-tidy (changed files)"
    BASE="$(git merge-base HEAD origin/main 2>/dev/null \
            || git merge-base HEAD main 2>/dev/null || true)"
    if [ -n "$BASE" ]; then
      CHANGED="$(git diff --name-only "$BASE" -- 'src/*.cpp' 'tools/*.cpp' \
                 | while read -r f; do [ -f "$f" ] && echo "$f"; done)"
    else
      CHANGED="$(find src -name '*.cpp')"
    fi
    if [ -n "$CHANGED" ]; then
      # shellcheck disable=SC2086
      clang-tidy -p build --quiet $CHANGED
    else
      echo "no changed .cpp files; skipping"
    fi
  else
    echo "clang-tidy not installed; skipping (config: .clang-tidy)"
  fi
fi

if [ "$RUN_ASAN" = 1 ]; then
  step "ASan+UBSan build (build-asan/)"
  cmake -B build-asan -S . -DEEVFS_SANITIZE=ON > /dev/null
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
fi

if [ "$RUN_TSAN" = 1 ]; then
  step "TSan build of the thread-pool stress test (build-tsan/)"
  cmake -B build-tsan -S . -DEEVFS_TSAN=ON > /dev/null
  cmake --build build-tsan --target test_thread_pool_stress -j "$JOBS"
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/test_thread_pool_stress
fi

if [ "$RUN_PERF" = 1 ]; then
  step "perf smoke (tools/perf_step.sh -> build/BENCH_perf.json)"
  # The step script owns the exit contract: a missing output JSON is a
  # hard failure even though the baseline comparison is warn-only
  # (tests/shell/test_perf_guard.sh pins this).
  tools/perf_step.sh

  step "perfbench correctness checks (every BENCHMARK.json workload)"
  # Only the checks gate here (request conservation, traced digest equal
  # to untraced, repeatable allocation counts, no lost acked writes);
  # the throughput it prints is not compared.
  BENCH_WORKLOADS="$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
  for workload in $BENCH_WORKLOADS; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      --trace 0 | tail -n 1
  done
fi

if [ -n "$DIGEST_REF" ]; then
  step "perfbench digests vs $DIGEST_REF (tools/digest_diff.py)"
  DIGEST_TREE="$(mktemp -d "${TMPDIR:-/tmp}/eevfs-digest-XXXXXX")"
  git worktree add --detach "$DIGEST_TREE" "$DIGEST_REF" > /dev/null
  trap 'git worktree remove --force "$DIGEST_TREE"' EXIT
  python3 tools/digest_diff.py --base "$DIGEST_TREE" --require-equal
fi

step "all checks passed"
