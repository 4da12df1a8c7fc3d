/**
 * @file
 * Caching size-class allocator for tensor storage (docs/PERFORMANCE.md).
 *
 * Every materialized Tensor draws its element buffer from here. In the
 * default `pool` mode, freed buffers are parked on per-size-class free
 * lists instead of going back to the heap, so a steady-state training
 * step — which allocates and frees the same set of intermediate shapes
 * every iteration — performs zero heap allocations after the first
 * (warm-up) step. `SLAPO_ALLOC=malloc` (or setMode) restores plain
 * heap alloc/free as an escape hatch and as the A/B baseline the
 * allocator tests and benches compare against.
 *
 * Requests are rounded up to a size class: powers of two in elements,
 * with a minimum class of 64 elements (256 B). The rounded capacity is
 * what the obs byte counters account, so alloc/live/peak stay exact
 * with respect to real memory held. Free lists are guarded by one mutex
 * per size class; the numeric kernels allocate from the main thread and
 * the DistExecutor / pipeline rank threads, and inside parallelFor chunks
 * only the GEMM's one panel scratch per chunk, so contention is
 * negligible.
 *
 * Observability (obs/metrics.h):
 *   alloc.pool_hits    requests served from a free list
 *   alloc.pool_misses  requests that had to touch the heap
 *   alloc.reuse_bytes  cumulative bytes served from free lists
 *   alloc.pooled_bytes bytes currently parked on free lists (gauge+peak)
 */
#pragma once

#include <cstdint>

#include "obs/mem_profiler.h"

namespace slapo {
namespace alloc {

/** Allocation backend selection. */
enum class Mode
{
    Pool,   ///< size-class free lists (default)
    Malloc, ///< plain heap allocation (SLAPO_ALLOC=malloc)
};

/** Effective mode: setMode() override, else SLAPO_ALLOC, else Pool. */
Mode mode();

/**
 * Programmatic override (tests, benches). Switching away from Pool
 * drains the free lists so held memory is returned to the heap.
 */
void setMode(Mode m);

/** Smallest capacity (in floats) any request is rounded up to. */
constexpr int64_t kMinClassElems = 64;

/** Size-class capacity for a request of `numel` floats: the smallest
 * power of two >= max(numel, kMinClassElems). */
int64_t sizeClassFor(int64_t numel);

/** Alignment of every buffer acquire() returns: one cache line. */
constexpr int64_t kBufferAlignBytes = 64;

/**
 * Acquire a buffer of at least `numel` floats, aligned to
 * kBufferAlignBytes. The contents are
 * UNINITIALIZED (possibly stale data from a previous tensor) — callers
 * that need zeros must clear it. Returns the buffer and writes the
 * rounded size-class capacity (in floats) to `capacity_out`; that
 * capacity must be passed back to release().
 */
float* acquire(int64_t numel, int64_t* capacity_out);

/** Return a buffer obtained from acquire(). In pool mode it is parked
 * on the matching free list; in malloc mode it is freed. */
void release(float* data, int64_t capacity);

/** Drain every free list back to the heap (tests / memory trim).
 * Buffers currently owned by live tensors are unaffected. */
void clearPool();

/** Bytes currently parked on the free lists. */
int64_t pooledBytes();

/**
 * RAII scratch buffer for kernel-internal temporaries (GEMM panels,
 * partial-sum arrays) that previously went through std::vector: drawn
 * from the same pool, so steady-state kernels stop hitting the heap for
 * scratch too. Not zero-initialized.
 */
class Scratch
{
  public:
    explicit Scratch(int64_t numel)
    {
        data_ = acquire(numel, &capacity_);
        // Scratch bypasses TensorStorage, so it carries its own memory
        // profiler hook (category `scratch`; never throws — a budget
        // throw out of a kernel temporary would leak the buffer).
        if (obs::memProfilingEnabled()) {
            obs::memRecordScratch(
                data_, capacity_ * static_cast<int64_t>(sizeof(float)));
        }
    }

    ~Scratch()
    {
        if (obs::memProfilingEnabled()) {
            obs::memRecordFree(data_);
        }
        release(data_, capacity_);
    }
    Scratch(const Scratch&) = delete;
    Scratch& operator=(const Scratch&) = delete;

    float* data() { return data_; }
    const float* data() const { return data_; }

  private:
    float* data_ = nullptr;
    int64_t capacity_ = 0;
};

} // namespace alloc
} // namespace slapo
