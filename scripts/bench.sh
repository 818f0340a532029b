#!/usr/bin/env bash
# Runs the pass-timing microbenchmarks and records google-benchmark JSON at
# the repo root (BENCH_pass_timing.json) so the perf trajectory is tracked
# in version control from PR to PR.
#
# The benchmarks build in a dedicated Release tree (build-bench/) — never in
# the default RelWithDebInfo/debug developer tree — and the script refuses
# to publish JSON whose context indicates a debug configuration. Note: the
# Debian-packaged libbenchmark reports "library_build_type": "debug"
# unconditionally (the *library* was compiled without NDEBUG), so the
# binary additionally records its own "epre_build_type"/"epre_assertions"
# context, which is what gates publication.
#
# Usage: scripts/bench.sh [extra google-benchmark flags]
#   e.g. scripts/bench.sh --benchmark_filter='BM_PipelineEndToEnd'
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-bench}
OUT=${OUT:-BENCH_pass_timing.json}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target bench_pass_timing >/dev/null

TMP_OUT=$(mktemp "${TMPDIR:-/tmp}/bench_pass_timing.XXXXXX.json")
trap 'rm -f "$TMP_OUT"' EXIT

"$BUILD_DIR"/bench/bench_pass_timing \
  --benchmark_out="$TMP_OUT" \
  --benchmark_out_format=json \
  "$@"

refuse() {
  echo "error: $1 — refusing to write $OUT" >&2
  echo "       (use scripts/bench.sh, which builds Release in build-bench/)" >&2
  exit 1
}

# A refusal gate that diffs against a committed baseline must fail LOUDLY
# when that baseline file is missing — a silently regenerated-from-nothing
# baseline would make the gate vacuously green and hide a regression.
# First-time bootstrap (a brand-new BENCH_*.json) is an explicit opt-in.
require_baseline() {
  [ -f "$1" ] && return 0
  if [ "${EPRE_BOOTSTRAP_BASELINES:-0}" = "1" ]; then
    echo "warning: baseline $1 is missing; bootstrapping a fresh one" >&2
    return 0
  fi
  echo "error: refusal-gate baseline $1 is missing" >&2
  echo "       The gate that diffs against it cannot run; restore the" >&2
  echo "       committed file, or re-run with EPRE_BOOTSTRAP_BASELINES=1" >&2
  echo "       to intentionally create a new baseline." >&2
  exit 1
}

grep -q '"epre_build_type": "Release"' "$TMP_OUT" ||
  refuse "benchmark binary was not built with -DCMAKE_BUILD_TYPE=Release"
grep -q '"epre_assertions": "disabled"' "$TMP_OUT" ||
  refuse "benchmark binary was built with assertions enabled (no NDEBUG)"
if grep -q '"library_build_type": "debug"' "$TMP_OUT" &&
   ! grep -q '"epre_build_type": "Release"' "$TMP_OUT"; then
  refuse "google-benchmark reports a debug build"
fi

mv "$TMP_OUT" "$OUT"
trap - EXIT
echo "wrote $OUT"

# Alongside the microbenchmark timings, record the instrumented suite
# statistics: per-pass wall-clock aggregate, every named counter, and
# per-pass remark counts for all four optimization levels in one JSON
# document (suite_report also backs the CI observability artifacts).
# The same run writes the per-routine dynamic profile document
# (epre-dynamic-profile-v1): BENCH_dynamic_profile.json is the committed
# baseline the CI operation-count regression gate diffs against with
# `epre-profdiff -gate`. Dynamic ILOC operation counts are deterministic
# (fixed suite inputs, integer counting), so the baseline only changes
# when the optimizer's output changes — regenerate it with this script
# and commit the new file alongside the change that moved the counts.
STATS_OUT=${STATS_OUT:-BENCH_suite_stats.json}
PROFILE_OUT=${PROFILE_OUT:-BENCH_dynamic_profile.json}
# CI's epre-profdiff gate diffs against the committed copy of this file;
# regenerating it from nothing would silently un-anchor that gate.
require_baseline "$PROFILE_OUT"
cmake --build "$BUILD_DIR" -j --target suite_report >/dev/null
"$BUILD_DIR"/examples/suite_report -o="$STATS_OUT" -profile-out="$PROFILE_OUT"

# Speculative-PRE baseline: the suite rerun with -strategy=speculative,
# each routine self-trained on its own driver inputs
# (docs/speculative-pre.md). CI diffs a regenerated copy against
# the LCM profile with `epre-profdiff -gate -min-improved=5`, and against
# this committed baseline for drift. Publication is refused unless
# speculation still strictly improves >= 5 routines over lazy code motion
# without regressing any beyond 2% — the ISSUE 8 acceptance floor.
SPECULATIVE_OUT=${SPECULATIVE_OUT:-BENCH_speculative.json}
require_baseline "$SPECULATIVE_OUT"
cmake --build "$BUILD_DIR" -j --target epre_profdiff >/dev/null

TMP_SPEC=$(mktemp "${TMPDIR:-/tmp}/bench_speculative.XXXXXX.json")
trap 'rm -f "$TMP_SPEC"' EXIT

"$BUILD_DIR"/examples/suite_report -speculative-out="$TMP_SPEC" \
  -o=/dev/null >/dev/null

"$BUILD_DIR"/examples/epre-profdiff "$PROFILE_OUT" "$TMP_SPEC" \
  -gate -tolerance=2 -min-improved=5 ||
  refuse "speculative PRE no longer beats LCM on >= 5 routines within tolerance"

mv "$TMP_SPEC" "$SPECULATIVE_OUT"
trap - EXIT
echo "wrote $SPECULATIVE_OUT"

# Interpreter old-vs-new: BENCH_interp.json records the legacy tree-walk
# against the predecoded direct-threaded engine (plus predecode cost,
# profiled overhead, and fuzz-execution throughput). Publication is gated:
# the predecoded engine must be >= 3x faster than the legacy engine at
# BM_Interpret/64 (the ISSUE 6 acceptance floor; target band is 5-10x), so
# a regression that erodes the speedup refuses to overwrite the record.
INTERP_OUT=${INTERP_OUT:-BENCH_interp.json}
cmake --build "$BUILD_DIR" -j --target bench_interp >/dev/null

TMP_INTERP=$(mktemp "${TMPDIR:-/tmp}/bench_interp.XXXXXX.json")
trap 'rm -f "$TMP_INTERP"' EXIT

"$BUILD_DIR"/bench/bench_interp \
  --benchmark_out="$TMP_INTERP" \
  --benchmark_out_format=json

grep -q '"epre_build_type": "Release"' "$TMP_INTERP" ||
  refuse "bench_interp was not built with -DCMAKE_BUILD_TYPE=Release"
grep -q '"epre_assertions": "disabled"' "$TMP_INTERP" ||
  refuse "bench_interp was built with assertions enabled (no NDEBUG)"

SPEEDUP=$(awk '
  /"name": "BM_InterpretLegacy\/64"/ { want = 1 }
  /"name": "BM_Interpret\/64"/       { want = 2 }
  /"real_time":/ && want {
    gsub(/[^0-9.eE+-]/, "", $2)
    if (want == 1) legacy = $2; else pre = $2
    want = 0
  }
  END {
    if (legacy == "" || pre == "" || pre + 0 == 0) { print "nan"; exit }
    printf "%.2f", legacy / pre
  }' "$TMP_INTERP")

echo "interpreter speedup at BM_Interpret/64: ${SPEEDUP}x (legacy / predecoded)"
awk -v s="$SPEEDUP" 'BEGIN { exit !(s + 0 >= 3.0) }' ||
  refuse "predecoded interpreter is only ${SPEEDUP}x faster (gate: >= 3x)"

mv "$TMP_INTERP" "$INTERP_OUT"
trap - EXIT
echo "wrote $INTERP_OUT"

# Compile-as-a-service throughput: BENCH_serve.json records cold
# single-shot compiles/sec against warm-cache replay of the duplicate-heavy
# suite trace (docs/serving.md). Publication is refused unless warm replay
# sustains >= 5x cold throughput (the ISSUE 7 acceptance floor) — a cache
# regression cannot silently overwrite the record.
SERVE_OUT=${SERVE_OUT:-BENCH_serve.json}
cmake --build "$BUILD_DIR" -j --target bench_serve >/dev/null

TMP_SERVE=$(mktemp "${TMPDIR:-/tmp}/bench_serve.XXXXXX.json")
trap 'rm -f "$TMP_SERVE"' EXIT

"$BUILD_DIR"/bench/bench_serve \
  --benchmark_out="$TMP_SERVE" \
  --benchmark_out_format=json

grep -q '"epre_build_type": "Release"' "$TMP_SERVE" ||
  refuse "bench_serve was not built with -DCMAKE_BUILD_TYPE=Release"
grep -q '"epre_assertions": "disabled"' "$TMP_SERVE" ||
  refuse "bench_serve was built with assertions enabled (no NDEBUG)"

SERVE_SPEEDUP=$(awk '
  /"name": "BM_ServeColdSingleShot"/ { want = 1 }
  /"name": "BM_ServeWarmReplay"/     { want = 2 }
  /"items_per_second":/ && want {
    gsub(/[^0-9.eE+-]/, "", $2)
    if (want == 1) cold = $2; else warm = $2
    want = 0
  }
  END {
    if (cold == "" || warm == "" || cold + 0 == 0) { print "nan"; exit }
    printf "%.2f", warm / cold
  }' "$TMP_SERVE")

echo "serve warm-replay speedup: ${SERVE_SPEEDUP}x (warm items/sec / cold items/sec)"
awk -v s="$SERVE_SPEEDUP" 'BEGIN { exit !(s + 0 >= 5.0) }' ||
  refuse "warm-cache replay is only ${SERVE_SPEEDUP}x cold throughput (gate: >= 5x)"

mv "$TMP_SERVE" "$SERVE_OUT"
trap - EXIT
echo "wrote $SERVE_OUT"
