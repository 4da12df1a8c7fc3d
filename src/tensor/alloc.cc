#include "tensor/alloc.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <new>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "support/error.h"

namespace slapo {
namespace alloc {

namespace {

/** 2^6 (= kMinClassElems) .. 2^40 elements: covers every tensor the
 * substrate can realistically materialize. */
constexpr int kMinClassLog2 = 6;
constexpr int kNumClasses = 35;

static_assert((int64_t{1} << kMinClassLog2) == kMinClassElems,
              "kMinClassLog2 must match kMinClassElems");

/** One free list per size class. The mutex is per-class so concurrent
 * rank threads releasing different shapes never serialize on each
 * other; buffers within a class are LIFO for cache warmth. */
struct FreeList
{
    std::mutex mu;
    std::vector<float*> buffers;
};

struct Pool
{
    FreeList classes[kNumClasses];
};

Pool&
pool()
{
    static Pool* p = new Pool(); // leaked: tensor dtors may run at exit
    return *p;
}

/** Mode override + env resolution, read once. */
std::atomic<int> g_mode_override{-1}; // -1 = unset, else Mode value

Mode
envMode()
{
    static const Mode resolved = [] {
        const char* env = std::getenv("SLAPO_ALLOC");
        if (env != nullptr && std::string_view(env) == "malloc") {
            return Mode::Malloc;
        }
        return Mode::Pool;
    }();
    return resolved;
}

/** Largest capacity the free lists manage; bigger requests go straight
 * to the heap so a class never mixes buffer sizes. */
constexpr int64_t kMaxClassElems = kMinClassElems
                                   << (kNumClasses - 1); // 2^40 floats

/** Buffers start on a cache line, so a tensor or GEMM panel whose rows
 * are whole lines never splits one (docs/PERFORMANCE.md). */
constexpr std::align_val_t kBufferAlign{kBufferAlignBytes};

float*
heapAllocate(int64_t capacity)
{
    return static_cast<float*>(::operator new(
        static_cast<size_t>(capacity) * sizeof(float), kBufferAlign));
}

void
heapFree(float* data)
{
    ::operator delete(data, kBufferAlign);
}

/** Class index for a rounded capacity (power of two >= min class). */
int
classIndexFor(int64_t capacity)
{
    int idx = 0;
    int64_t c = kMinClassElems;
    while (c < capacity) {
        c <<= 1;
        ++idx;
    }
    SLAPO_ASSERT(idx < kNumClasses, "alloc: capacity beyond largest class");
    return idx;
}

} // namespace

Mode
mode()
{
    const int forced = g_mode_override.load(std::memory_order_relaxed);
    if (forced >= 0) {
        return static_cast<Mode>(forced);
    }
    return envMode();
}

void
setMode(Mode m)
{
    g_mode_override.store(static_cast<int>(m), std::memory_order_relaxed);
    if (m != Mode::Pool) {
        clearPool();
    }
}

int64_t
sizeClassFor(int64_t numel)
{
    int64_t c = kMinClassElems;
    while (c < numel) {
        c <<= 1;
    }
    return c;
}

float*
acquire(int64_t numel, int64_t* capacity_out)
{
    SLAPO_ASSERT(numel >= 0, "alloc: negative element count " << numel);
    const int64_t capacity = sizeClassFor(numel);
    *capacity_out = capacity;
    obs::Metrics& m = obs::metrics();
    if (mode() == Mode::Pool && capacity <= kMaxClassElems) {
        FreeList& fl = pool().classes[classIndexFor(capacity)];
        float* reused = nullptr;
        {
            std::lock_guard<std::mutex> lock(fl.mu);
            if (!fl.buffers.empty()) {
                reused = fl.buffers.back();
                fl.buffers.pop_back();
            }
        }
        if (reused != nullptr) {
            const int64_t bytes =
                capacity * static_cast<int64_t>(sizeof(float));
            m.alloc_pool_hits.add(1);
            m.alloc_reuse_bytes.add(bytes);
            m.alloc_pooled_bytes.add(-bytes);
            return reused;
        }
    }
    m.alloc_pool_misses.add(1);
    return heapAllocate(capacity);
}

void
release(float* data, int64_t capacity)
{
    if (data == nullptr) {
        return;
    }
    if (mode() == Mode::Pool && capacity <= kMaxClassElems) {
        FreeList& fl = pool().classes[classIndexFor(capacity)];
        {
            std::lock_guard<std::mutex> lock(fl.mu);
            fl.buffers.push_back(data);
        }
        obs::metrics().alloc_pooled_bytes.add(
            capacity * static_cast<int64_t>(sizeof(float)));
        return;
    }
    heapFree(data);
}

void
clearPool()
{
    int64_t drained_bytes = 0;
    for (int i = 0; i < kNumClasses; ++i) {
        FreeList& fl = pool().classes[i];
        std::vector<float*> taken;
        {
            std::lock_guard<std::mutex> lock(fl.mu);
            taken.swap(fl.buffers);
        }
        const int64_t capacity = kMinClassElems << i;
        drained_bytes +=
            static_cast<int64_t>(taken.size()) * capacity *
            static_cast<int64_t>(sizeof(float));
        for (float* p : taken) {
            heapFree(p);
        }
    }
    obs::metrics().alloc_pooled_bytes.add(-drained_bytes);
}

int64_t
pooledBytes()
{
    return obs::metrics().alloc_pooled_bytes.get();
}

} // namespace alloc
} // namespace slapo
