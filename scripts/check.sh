#!/usr/bin/env bash
# Repo hygiene / verification driver.
#
#   scripts/check.sh               tier-1 verify (build + ctest) plus
#                                  the warnings-as-errors build and,
#                                  when the toolchain supports them,
#                                  the ThreadSanitizer,
#                                  AddressSanitizer and
#                                  UndefinedBehaviorSanitizer runs
#   scripts/check.sh --werror-only only the -Werror configure + build
#                                  (this mode is wired as the
#                                  check_werror ctest, so it must never
#                                  invoke ctest itself)
#   scripts/check.sh --tsan-only   only the -fsanitize=thread build of
#                                  the concurrency-sensitive tests,
#                                  then run them directly (wired as the
#                                  check_tsan ctest; never invokes
#                                  ctest itself)
#   scripts/check.sh --asan-only   only the -fsanitize=address build of
#                                  the error-path-heavy tests and of the
#                                  JSON and TuneDb readers' tests, then
#                                  run them directly (wired as the
#                                  check_asan ctest; never invokes
#                                  ctest itself)
#   scripts/check.sh --ubsan-only  only the -fsanitize=undefined build
#                                  of the exec-layer tests (every
#                                  untraced bytecode run takes the
#                                  lane blocks), then run them
#                                  directly (wired as the check_ubsan
#                                  ctest; never invokes ctest itself)
#
# All modes use their own build directories and leave ./build alone.
# Performance is measured by the repository benchmark,
# python3 perfbench/run.py (perfbench/METRICS.md), not by this script.
set -euo pipefail

src="${POLYFUSE_SOURCE_DIR:-$(cd "$(dirname "$0")/.." && pwd)}"
jobs="$(nproc 2>/dev/null || echo 4)"

werror_build() {
    echo "== configure + build with -Wall -Wextra -Werror =="
    cmake -B "$src/build-werror" -S "$src" -DPOLYFUSE_WERROR=ON
    cmake --build "$src/build-werror" -j "$jobs"
    echo "== -Werror build OK =="
}

# Can this toolchain compile, link and run the given sanitizer flag?
# (No RETURN trap here: one set inside a function persists globally
# and would fire on later returns where the local is out of scope,
# tripping set -u.)
sanitizer_supported() {
    local flag="$1" scratch ok=1
    scratch="$(mktemp -d)"
    echo 'int main() { return 0; }' > "$scratch/probe.cc"
    if "${CXX:-c++}" "$flag" -o "$scratch/probe" \
           "$scratch/probe.cc" >/dev/null 2>&1 &&
       "$scratch/probe" >/dev/null 2>&1; then
        ok=0
    fi
    rm -rf "$scratch"
    return "$ok"
}

tsan_supported() { sanitizer_supported -fsanitize=thread; }
asan_supported() { sanitizer_supported -fsanitize=address; }
ubsan_supported() { sanitizer_supported -fsanitize=undefined; }

# Build the re-entrancy-sensitive test binaries under TSAN and run
# them directly. Races in the batch/pool/pres-context machinery --
# in the tile-graph parallel executor (the *Parallel* subset of
# test_exec exercises the static and ready-queue paths at 2 and 8
# threads) -- in the backend registry's parallel paths (Backend*
# covers the bytecode-par2/par4 backends on two static-split keys and
# on seidel/minfuse, whose wavefront DAG drains through the ready
# queue, with every worker running the lane blocks, and the
# parallel-native ladder, whose only tile team is the OpenMP one;
# the registry-wide BackendSweep stays out, its pipeline compiles
# would blow the gate's budget under TSAN) -- and in the sharded
# KernelCache (the KernelCache subset of test_artifact hammers
# compile/lookup from 8 threads and flips one image between its
# sequential and OpenMP-team native slots) -- and in the compile
# service's accept/reader/worker/drain machinery (the whole of
# test_service runs a live daemon with concurrent clients) -- show
# up here as hard failures.
tsan_build_and_run() {
    echo "== configure + build with -fsanitize=thread =="
    cmake -B "$src/build-tsan" -S "$src" -DPOLYFUSE_TSAN=ON
    cmake --build "$src/build-tsan" -j "$jobs" \
        --target test_driver test_concurrency test_robustness \
        test_exec test_artifact test_service
    echo "== run test_driver + test_concurrency + test_robustness" \
         "+ test_exec[*Parallel*:Backend*] +" \
         "test_artifact[KernelCache.*] + test_service under TSAN =="
    "$src/build-tsan/tests/test_driver"
    "$src/build-tsan/tests/test_concurrency"
    "$src/build-tsan/tests/test_robustness"
    "$src/build-tsan/tests/test_exec" \
        --gtest_filter='*Parallel*:Backend*'
    "$src/build-tsan/tests/test_artifact" \
        --gtest_filter='KernelCache.*'
    "$src/build-tsan/tests/test_service"
    echo "== TSAN run OK =="
}

# Build the error-path-heavy test binaries under ASAN and run them
# directly. Leaks or overflows on the budget/fallback/failpoint
# unwind paths — and on the bytecode VM's strength-reduced access
# offsets (tests/test_exec.cc) — and on the service's per-request
# error/shed/drain unwind paths (tests/test_service.cc) — and on the
# tuner's parallel batch evaluation and tuning-store parsing
# (tests/test_autotune.cc) — and in the two readers of hostile input,
# the JSON parser (test_support's Json* tests) and TuneDb's
# per-record salvage (test_artifact's TuneDb* tests, which sweep
# every byte flip and truncation of a saved store) — show up here as
# hard failures. The registry-wide Autotune.Registry* gates are
# excluded: each runs the full exhaustive tile sweep over every
# workload (~20 s in a normal build), and the other Autotune tests
# already drive the same evaluation path under ASAN.
asan_build_and_run() {
    echo "== configure + build with -fsanitize=address =="
    cmake -B "$src/build-asan" -S "$src" -DPOLYFUSE_ASAN=ON
    cmake --build "$src/build-asan" -j "$jobs" \
        --target test_robustness test_pres_parser test_exec \
        test_service test_autotune test_artifact test_support
    echo "== run test_robustness + test_pres_parser + test_exec" \
         "+ test_service + test_autotune (minus Registry*) +" \
         "test_artifact[TuneDb*] + test_support[Json*] under ASAN =="
    "$src/build-asan/tests/test_robustness"
    "$src/build-asan/tests/test_pres_parser"
    "$src/build-asan/tests/test_exec"
    "$src/build-asan/tests/test_service"
    "$src/build-asan/tests/test_autotune" \
        --gtest_filter='-Autotune.Registry*'
    "$src/build-asan/tests/test_artifact" --gtest_filter='TuneDb*'
    "$src/build-asan/tests/test_support" --gtest_filter='Json*'
    echo "== ASAN run OK =="
}

# Build the exec-layer tests under UBSan and run them directly. Every
# untraced bytecode run takes the lane blocks, which step raw element
# pointers through lane loops over strength-reduced access offsets;
# misaligned or out-of-range arithmetic there shows up here as a hard
# failure. The registry-wide BackendSweep is excluded: its
# per-workload native pipeline compiles add minutes without adding UB
# surface (the same lane loops run via the Backend* and differential
# tests that do stay in).
ubsan_build_and_run() {
    echo "== configure + build with -fsanitize=undefined =="
    cmake -B "$src/build-ubsan" -S "$src" -DPOLYFUSE_UBSAN=ON
    cmake --build "$src/build-ubsan" -j "$jobs" --target test_exec
    echo "== run test_exec (minus BackendSweep) under UBSan =="
    "$src/build-ubsan/tests/test_exec" \
        --gtest_filter='-*BackendSweep*'
    echo "== UBSan run OK =="
}

case "${1:-}" in
  --werror-only)
    werror_build
    exit 0
    ;;
  --tsan-only)
    if ! tsan_supported; then
        echo "TSAN not supported by this toolchain; skipping"
        exit 0
    fi
    tsan_build_and_run
    exit 0
    ;;
  --asan-only)
    if ! asan_supported; then
        echo "ASAN not supported by this toolchain; skipping"
        exit 0
    fi
    asan_build_and_run
    exit 0
    ;;
  --ubsan-only)
    if ! ubsan_supported; then
        echo "UBSan not supported by this toolchain; skipping"
        exit 0
    fi
    ubsan_build_and_run
    exit 0
    ;;
esac

echo "== tier-1 verify: build + ctest =="
cmake -B "$src/build-check" -S "$src"
cmake --build "$src/build-check" -j "$jobs"
(cd "$src/build-check" && ctest --output-on-failure -j "$jobs" \
    -E '^check_(werror|tsan|asan|ubsan)$')
werror_build
if tsan_supported; then
    tsan_build_and_run
else
    echo "== TSAN not supported by this toolchain; skipped =="
fi
if asan_supported; then
    asan_build_and_run
else
    echo "== ASAN not supported by this toolchain; skipped =="
fi
if ubsan_supported; then
    ubsan_build_and_run
else
    echo "== UBSan not supported by this toolchain; skipped =="
fi
echo "== all checks passed =="
