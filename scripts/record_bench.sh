#!/usr/bin/env bash
# Persist the bench baselines the ROADMAP asks for: run the benches that
# emit machine-readable output and collect their JSON under
# bench_results/. Re-run on a perf-relevant change and commit the diff —
# that is the whole perf trajectory story.
#
#   ./scripts/record_bench.sh            # build (if needed) + record all
#   OUT_DIR=/tmp/b ./scripts/record_bench.sh
#
# Outputs:
#   bench_results/BENCH_F2.json  adaptation + per-substrate overhead
#   bench_results/BENCH_M1.json  microbenchmarks (google-benchmark JSON)
#   bench_results/BENCH_R1.json  fault-tolerance cost (recovery windows)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${OUT_DIR:-bench_results}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S . -DGRIDPIPE_BUILD_BENCH=ON > /dev/null
cmake --build "$BUILD_DIR" -j"$JOBS" --target bench_f2_overhead bench_m1_micro \
  bench_r1_recovery

mkdir -p "$OUT_DIR"

echo "== EXP-F2 (adaptation + substrate overhead) =="
"$BUILD_DIR"/bench/bench_f2_overhead --json "$OUT_DIR/BENCH_F2.json"

echo "== EXP-M1 (microbenchmarks) =="
# benchmark_repetitions kept low: the baseline tracks orders of
# magnitude across commits, not single-digit percents. The context's
# library_build_type describes the installed google-benchmark library;
# gridpipe's own build type and compiler are added beside it.
"$BUILD_DIR"/bench/bench_m1_micro \
  --benchmark_out="$OUT_DIR/BENCH_M1.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.05 \
  --benchmark_context="gridpipe_build_type=$(
    sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$BUILD_DIR/CMakeCache.txt"),compiler=$(
    "${CXX:-c++}" -dumpfullversion 2>/dev/null || echo unknown)"

echo "== EXP-R1 (fault-tolerance cost) =="
"$BUILD_DIR"/bench/bench_r1_recovery --json "$OUT_DIR/BENCH_R1.json"

python3 -m json.tool "$OUT_DIR/BENCH_F2.json" > /dev/null
python3 -m json.tool "$OUT_DIR/BENCH_M1.json" > /dev/null
python3 -m json.tool "$OUT_DIR/BENCH_R1.json" > /dev/null
echo "baselines written to $OUT_DIR/"
