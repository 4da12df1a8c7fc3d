#!/usr/bin/env bash
# Build the tree under UndefinedBehaviorSanitizer and run the graph /
# schedule / allocator / static-analysis tests. The graph IR and the
# static lint lean on exactly the constructs UBSan polices and the
# regular build cannot: int64 extent arithmetic (shard divisibility,
# interleave group math, liveness intervals) that must not wrap, enum
# casts between NodeKind/Op and their storage, and pointer alignment on
# the pool-recycled raw buffers the planner rewrites in place. Any
# change to src/graph/, src/analysis/, core/schedule.cc, or
# tensor/alloc.* should pass through here.
#
# Registered as the `ubsan_core` ctest (bench/CMakeLists.txt) scoped to
# the graph/schedule/alloc/analysis tests so tier-1 stays fast; run it
# manually with no filter for whole-suite UBSan coverage:
#
# Usage: bench/run_ubsan.sh [--targets=EXE,...] [extra ctest args, e.g. -R Sharding]
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
BUILD="${ROOT}/build-ubsan"

gen=()
command -v ninja >/dev/null 2>&1 && gen=(-G Ninja)
cmake -B "${BUILD}" -S "${ROOT}" "${gen[@]}" \
    -DSLAPO_SANITIZE=undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
# Only the test executables: the benches and examples (and the smoke
# tests that drive them) are not part of the gate. Build the whole tree
# first for a no-filter run that includes them.
cmake --build "${BUILD}" -j --target "${targets[@]}"

# The build already passes -fno-sanitize-recover=all, so any report
# aborts the offending test; print_stacktrace makes the one-line UBSan
# diagnostics actionable without a rerun under a debugger.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1 halt_on_error=1}"

ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)" "$@"
