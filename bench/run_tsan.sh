#!/usr/bin/env bash
# Build the whole tree under ThreadSanitizer and run the tier-1 test
# suite. The thread-per-rank collectives, the ProcessGroup abort/timeout
# paths, the pipeline queues, and the lock-free flight-recorder rings
# (tests/test_dist_obs.cc — including the watchdog thread dumping a ring
# while rank threads are mid-collective) are exactly where TSan earns
# its keep — this is the gate for any change to src/runtime/ or src/obs/
# concurrency.
#
# Registered as the `elastic_tsan` ctest (bench/CMakeLists.txt) over the
# elastic-recovery suite (-R Elastic); run it by hand with -R Fault or
# no filter for the full tier-1 suite under TSan.
#
# Usage: bench/run_tsan.sh [--targets=EXE,...] [extra ctest args, e.g. -R Fault]
set -euo pipefail

# --targets=a,b,... builds only those test executables; the ctest gates
# pass the ones that hold a test their filter selects. Default: all of
# them (the slapo_tests target).
targets=(slapo_tests)
if [[ "${1:-}" == --targets=* ]]; then
    IFS=, read -r -a targets <<< "${1#--targets=}"
    shift
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${ROOT}/build-tsan"

gen=()
command -v ninja >/dev/null 2>&1 && gen=(-G Ninja)
cmake -B "${BUILD}" -S "${ROOT}" "${gen[@]}" \
    -DSLAPO_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
# Only the test executables: the benches and examples (and the smoke
# tests that drive them) are not part of the gate. Build the whole tree
# first for a no-filter run that includes them.
cmake --build "${BUILD}" -j --target "${targets[@]}"

# Second-guess TSan's default behaviour of continuing after a report:
# any race fails the run.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 abort_on_error=1}"

ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)" "$@"
