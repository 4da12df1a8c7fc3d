#!/usr/bin/env bash
# Build the tree under AddressSanitizer and run the allocator-sensitive
# tests. The caching tensor allocator (tensor/alloc.h) recycles raw
# float buffers through free lists and hands out *uninitialized*
# storage; the in-place planner rewrites kernels to overwrite buffers
# they do not own the only reference to unless guarded. Use-after-
# release into the pool, size-class mix-ups, and scratch-buffer overruns
# are exactly the bug class ASan catches and the regular build cannot —
# this is the gate for any change to tensor/alloc.*, tensor/ops.cc, or
# the executors' release paths.
#
# Registered as the `asan_alloc` ctest (bench/CMakeLists.txt) scoped to
# the Alloc/Tensor tests and the GEMM tests (matmul, linear and its
# backward against a naive loop, which pack into pooled buffers) so
# tier-1 stays fast; run it manually with no filter for whole-suite ASan
# coverage:
#
# Usage: bench/run_asan.sh [--targets=EXE,...] [extra ctest args, e.g. -R Alloc]
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
BUILD="${ROOT}/build-asan"

gen=()
command -v ninja >/dev/null 2>&1 && gen=(-G Ninja)
cmake -B "${BUILD}" -S "${ROOT}" "${gen[@]}" \
    -DSLAPO_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
# Only the test executables: the benches and examples (and the smoke
# tests that drive them) are not part of the gate. Build the whole tree
# first for a no-filter run that includes them.
cmake --build "${BUILD}" -j --target "${targets[@]}"

# Any report fails the run; leak detection stays on — pool-parked
# buffers are reachable through the allocator's free lists, so they are
# not leaks, and anything LSan does flag is a real one.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1 abort_on_error=1}"

ctest --test-dir "${BUILD}" --output-on-failure -j "$(nproc)" "$@"
