#!/usr/bin/env bash
# Tier-1 gate: header self-containment check → configure → build
# (warnings are errors) → ctest, then a ThreadSanitizer pass over the
# concurrency-heavy suites (test_core, test_dist_executor,
# test_integration, test_comm, test_shm_ring, test_flight,
# test_stream_core) and an ASan+UBSan pass over the fork/socket-heavy
# ones (test_proc_executor, test_comm, test_dist_executor,
# test_shm_ring, test_flight, test_recover, test_stream_core) — lifetime
# bugs live where processes, shared mappings and fds do. When a clang++
# is available two static-analysis stages follow: a clang build with
# -Wthread-safety -Werror (the annotation gate) and clang-tidy over
# src/ (curated checks from .clang-tidy, warnings are errors). Mirrors
# the one-command verify line in README.md, with -Werror added so the
# tree stays warning-clean.
#
#   SKIP_TSAN=1 SKIP_ASAN=1 ./scripts/check.sh   # only the regular gate
#   TSAN_ONLY=1 ./scripts/check.sh               # only the TSan stage
#   ASAN_ONLY=1 ./scripts/check.sh               # only the ASan stage
#   HEADERS_ONLY=1 ./scripts/check.sh            # only the header check
#   CLANG_ONLY=1 ./scripts/check.sh              # only the clang -Wthread-safety build
#   TIDY_ONLY=1 ./scripts/check.sh               # only the clang-tidy stage
#   SKIP_CLANG=1 SKIP_TIDY=1 ./scripts/check.sh  # skip the clang stages
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
CLANG_BUILD_DIR="${CLANG_BUILD_DIR:-build-clang}"
JOBS="$(nproc 2>/dev/null || echo 4)"
CXX_BIN="${CXX:-g++}"

# Only-stage selectors are mutually exclusive shortcuts; each one implies
# skipping every other stage.
ONLY_SET="${TSAN_ONLY:-}${ASAN_ONLY:-}${CLANG_ONLY:-}${TIDY_ONLY:-}"

find_clangxx() {
  if [[ -n "${CLANGXX:-}" ]]; then echo "$CLANGXX"; return; fi
  local c
  for c in clang++ clang++-20 clang++-19 clang++-18 clang++-17 \
           clang++-16 clang++-15 clang++-14; do
    if command -v "$c" >/dev/null 2>&1; then echo "$c"; return; fi
  done
}

if [[ -z "${ONLY_SET}" && -z "${SKIP_HEADERS:-}" ]]; then
  # Header self-containment: every public header must compile standalone
  # (a user includes rt/runtime.hpp alone and expects it to work; a
  # header that leans on its includer's includes rots silently).
  echo "== header self-containment (src/**/*.hpp) =="
  # Compile a one-line TU per header (not the header itself: GCC warns
  # on #pragma once in a main file).
  find src -name '*.hpp' | sort | while read -r header; do
    echo "#include \"${header#src/}\"" |
      "$CXX_BIN" -std=c++20 -fsyntax-only -Wall -Wextra -Werror -Isrc \
        -x c++ - ||
      { echo "not self-contained: $header"; exit 1; }
  done
fi
if [[ -n "${HEADERS_ONLY:-}" ]]; then exit 0; fi

if [[ -z "${ONLY_SET}" ]]; then
  # Pin the options the gate depends on (the smoke test needs examples),
  # so a build dir whose cache was configured differently still verifies
  # the full suites + smoke contract.
  cmake -B "$BUILD_DIR" -S . -DGRIDPIPE_WERROR=ON \
    -DGRIDPIPE_BUILD_TESTS=ON -DGRIDPIPE_BUILD_EXAMPLES=ON
  cmake --build "$BUILD_DIR" -j"$JOBS"
  # cd instead of ctest --test-dir: the latter needs CTest >= 3.20 and the
  # project supports CMake 3.16.
  (cd "$BUILD_DIR" && ctest --output-on-failure -j"$JOBS")
fi

if [[ -z "${SKIP_TSAN:-}" && ( -z "${ONLY_SET}" || -n "${TSAN_ONLY:-}" ) ]]; then
  cmake -B "$TSAN_BUILD_DIR" -S . -DGRIDPIPE_TSAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGRIDPIPE_BUILD_BENCH=OFF -DGRIDPIPE_BUILD_EXAMPLES=OFF
  cmake --build "$TSAN_BUILD_DIR" -j"$JOBS" \
    --target test_core test_dist_executor test_integration test_comm \
    test_shm_ring test_flight test_stream_core
  # RUN_SERIAL already orders these; -R narrows to the threaded suites so
  # the TSan stage stays fast. The wall-clock throughput-band tests are
  # excluded: TSan's 5-15x slowdown makes their bands meaningless, and a
  # retry loop that would absorb their flakiness could equally swallow a
  # nondeterministic race report. Every failure here is terminal.
  # shm_ring rides along for its two-thread SPSC stress (the ring's
  # acquire/release pairing is exactly what TSan checks); its fork-based
  # cases are excluded — TSan does not support multi-threaded fork. The
  # flight suite's concurrent writer/reader snapshot stress is likewise
  # exactly TSan's territory; its fork case is excluded the same way.
  (cd "$TSAN_BUILD_DIR" &&
    GTEST_FILTER='-Executor.HeterogeneityEmulationSlowsThroughput:Executor.ThroughputTracksModelPrediction:DistributedExecutor.HeterogeneityChangesThroughput:DesVsThreads.ThroughputAgreesWithinBand:ShmRingMesh.CrossProcessPushPopThroughFork:FlightRecorder.ParentReadsKilledChildsLaneAfterFork' \
    ctest --output-on-failure -R '^(core|dist_executor|integration|comm|shm_ring|flight|stream_core)$')
fi

if [[ -z "${SKIP_ASAN:-}" && ( -z "${ONLY_SET}" || -n "${ASAN_ONLY:-}" ) ]]; then
  cmake -B "$ASAN_BUILD_DIR" -S . -DGRIDPIPE_ASAN=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGRIDPIPE_BUILD_BENCH=OFF -DGRIDPIPE_BUILD_EXAMPLES=OFF
  cmake --build "$ASAN_BUILD_DIR" -j"$JOBS" \
    --target test_proc_executor test_comm test_dist_executor test_shm_ring \
    test_flight test_recover test_stream_core
  # The proc suite forks real worker processes under ASan (fork is fine
  # with ASan, unlike TSan; children _exit so LeakSanitizer only audits
  # the parent). flight rides along for its mmap lifetime and its own
  # fork + SIGKILL forensics case; recover SIGKILLs workers mid-stream
  # and audits the respawn/replay teardown paths; stream_core's ordered
  # buffer and admission bookkeeping get the heap checks their TSan run
  # lacks. The wall-clock throughput-band test is excluded for the same
  # reason as under TSan: sanitizer slowdown voids its band.
  (cd "$ASAN_BUILD_DIR" &&
    GTEST_FILTER='-DistributedExecutor.HeterogeneityChangesThroughput' \
    ctest --output-on-failure -R '^(proc_executor|comm|dist_executor|shm_ring|flight|recover|stream_core)$')
fi

if [[ -z "${SKIP_CLANG:-}" && ( -z "${ONLY_SET}" || -n "${CLANG_ONLY:-}" ) ]]; then
  CLANGXX_BIN="$(find_clangxx)"
  if [[ -z "${CLANGXX_BIN}" ]]; then
    echo "== clang thread-safety stage: no clang++ found, skipping =="
  else
    echo "== clang -Wthread-safety build (${CLANGXX_BIN}) =="
    cmake -B "$CLANG_BUILD_DIR" -S . \
      -DCMAKE_CXX_COMPILER="$CLANGXX_BIN" \
      -DGRIDPIPE_THREAD_SAFETY=ON -DGRIDPIPE_WERROR=ON \
      -DGRIDPIPE_BUILD_TESTS=ON -DGRIDPIPE_BUILD_BENCH=ON \
      -DGRIDPIPE_BUILD_EXAMPLES=ON
    cmake --build "$CLANG_BUILD_DIR" -j"$JOBS"
    # The annotation gate can't be allowed to rot into no-ops: assert the
    # seeded violation probe still fails to compile.
    (cd "$CLANG_BUILD_DIR" && ctest --output-on-failure -R '^thread_safety_gate$')
  fi
fi

if [[ -z "${SKIP_TIDY:-}" && ( -z "${ONLY_SET}" || -n "${TIDY_ONLY:-}" ) ]]; then
  RUN_TIDY=""
  for c in run-clang-tidy run-clang-tidy-20 run-clang-tidy-19 run-clang-tidy-18 \
           run-clang-tidy-17 run-clang-tidy-16 run-clang-tidy-15 run-clang-tidy-14; do
    if command -v "$c" >/dev/null 2>&1; then RUN_TIDY="$c"; break; fi
  done
  if [[ -z "${RUN_TIDY}" ]]; then
    echo "== clang-tidy stage: no run-clang-tidy found, skipping =="
  else
    echo "== clang-tidy over src/ (${RUN_TIDY}) =="
    # Needs a compile_commands.json; the regular gate's build dir exports
    # one (CMAKE_EXPORT_COMPILE_COMMANDS is always on).
    if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
      cmake -B "$BUILD_DIR" -S . -DGRIDPIPE_BUILD_TESTS=ON \
        -DGRIDPIPE_BUILD_EXAMPLES=ON
    fi
    # .clang-tidy sets WarningsAsErrors: '*', so any finding fails here.
    "$RUN_TIDY" -quiet -p "$BUILD_DIR" 'src/.*\.cpp$'
  fi
fi
