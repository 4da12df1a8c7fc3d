#!/usr/bin/env bash
# Run the numeric-kernel micro-benchmarks and record the results as
# BENCH_kernels.json at the repo root. Covers the blocked/parallel kernel
# backend: matmul sizes 32..512, the thread-sweep variants (n x threads),
# linear at the mid model's wide shapes and its backward, fc1 forced onto
# the baseline (SSE2) path, whose fused multiply-add is emulated, layernorm
# and its backward, softmax, cross-entropy and its backward at the mid
# model's loss shape, gelu with its backward, the fused attention's
# forward and backward at the mid model's shape — plus the
# caching-allocator A/B (BM_AllocStep / BM_AllocAcquireRelease, pool=0 vs
# pool=1).
#
# Usage: bench/run_kernels.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
bench_bin="$build_dir/bench/bench_micro"

if [[ ! -x "$bench_bin" ]]; then
    echo "error: $bench_bin not built; run:" >&2
    echo "  cmake -B \"$build_dir\" -S \"$repo_root\" && cmake --build \"$build_dir\" -j" >&2
    exit 1
fi

out="$repo_root/BENCH_kernels.json"
"$bench_bin" \
    --benchmark_filter='BM_Tensor(Matmul|MatmulThreads|Linear|LinearThreads|LinearBaselineIsa|LinearBackward|LayerNorm|LayerNormBackward|Softmax|CrossEntropy|CrossEntropyBackward|Gelu|GeluBackward)|BM_AttentionForwardBackward|BM_Alloc(Step|AcquireRelease)' \
    --benchmark_format=json \
    --benchmark_out="$out" \
    --benchmark_out_format=json

# Stamp the run's provenance into the JSON context block so a result file
# is comparable later: which commit, how many kernel threads, and what
# compiler flags produced the binary. bench_micro itself records which
# ISA path the dispatched kernels took as "kernel_isa"; refuse a file
# without it, since rows from different paths do not compare.
git_sha="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)"
git_dirty="$(git -C "$repo_root" status --porcelain 2>/dev/null | head -1)"
[[ -n "$git_dirty" ]] && git_sha="$git_sha-dirty"
threads="${SLAPO_NUM_THREADS:-$(nproc 2>/dev/null || echo 1)}"
cache="$build_dir/CMakeCache.txt"
build_type=""
cxx_flags=""
if [[ -f "$cache" ]]; then
    build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$cache" | head -1)"
    cxx_flags="$(sed -n 's/^CMAKE_CXX_FLAGS:[^=]*=//p' "$cache" | head -1)"
    if [[ -n "$build_type" ]]; then
        type_upper="$(echo "$build_type" | tr '[:lower:]' '[:upper:]')"
        type_flags="$(sed -n "s/^CMAKE_CXX_FLAGS_${type_upper}:[^=]*=//p" \
                      "$cache" | head -1)"
        cxx_flags="$(echo "$cxx_flags $type_flags" | xargs || true)"
    fi
fi
python3 - "$out" "$git_sha" "$threads" "$build_type" "$cxx_flags" <<'PY'
import json, sys
path, sha, threads, build_type, flags = sys.argv[1:6]
with open(path) as f:
    doc = json.load(f)
doc.setdefault("context", {})
if not doc["context"].get("kernel_isa"):
    sys.exit(f"error: {path} has no kernel_isa in its context")
doc["context"]["git_sha"] = sha
doc["context"]["slapo_num_threads"] = int(threads)
doc["context"]["cmake_build_type"] = build_type
doc["context"]["cxx_flags"] = flags
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
PY

echo "wrote $out"
