/**
 * @file
 * Memory profiler: live-tensor attribution, peak forensics, and the
 * memory-budget watchdog (docs/OBSERVABILITY.md, "Where did my memory
 * go?").
 *
 * Where obs/metrics.h keeps one global live/peak byte pair, this module
 * answers *which module, which schedule primitive, which tensor
 * category* is holding the bytes. Every `TensorStorage` (and every
 * `alloc::Scratch` kernel temporary) is tagged at allocation with:
 *
 *   category    parameter / gradient / activation / optimizer-state /
 *               scratch / comm-buffer, taken from the innermost
 *               MemCategoryScope on the allocating thread (the runtime
 *               opens scopes at the natural sites: initializeParams,
 *               AdamW::addParam, gradient accumulation, the bucketed
 *               gradient exchange; everything else is an activation)
 *   module      the dotted ModuleScope path active at allocation
 *   primitive   the stamped node provenance when allocation happens
 *               under a graph node (MemNodeScope), else the provenance
 *               registry's longest-prefix match, else "baseline" —
 *               the same precedence step reports use for time
 *   node id     the graph node being executed (-1 outside executors)
 *   rank        the data-parallel rank / pipeline stage of the
 *               allocating thread (setMemThreadRank), re-attributable
 *               after an elastic rebuild (memRetagRank)
 *
 * On every advance of the live-bytes high watermark the registry
 * snapshots a peak attribution report — bytes per (category, module,
 * primitive), top-K live tensors — and, while a Chrome trace is live,
 * emits one counter track per category so checkpointing visibly trades
 * activation bytes for recompute time on the same timeline.
 *
 * Cost discipline: when disabled (the default) every instrumented
 * allocation/free costs ONE relaxed atomic load (`memProfilingEnabled`,
 * same pattern as obs::tracingEnabled). Enabled cost is a mutexed
 * registry update per allocation — the benches put a number on both
 * (BM_MemProfilerDisabledCheck / BM_MemProfilerRecord).
 *
 * Budget watchdog: `SLAPO_MEM_BUDGET=bytes` (auto-enables the profiler)
 * turns the first allocation that pushes live bytes over the budget
 * into forensics: the full peak report is written as a run-log
 * `mem.budget` record and to the `SLAPO_MEM_DUMP` file, and with
 * `SLAPO_MEM_BUDGET_ACTION=throw` the allocation is rolled back and a
 * typed MemoryBudgetExceeded is raised — which the recovery machinery
 * treats like any other step failure. The watchdog re-arms once live
 * bytes fall back under the budget.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace slapo {
namespace obs {

/** What a live tensor is *for*. Order is the report/JSON order. */
enum class MemCategory : int
{
    Parameter = 0,
    Gradient,
    Activation,
    OptimizerState,
    Scratch,
    CommBuffer,
};

constexpr int kNumMemCategories = 6;

/** Lower-case stable name ("parameter", "optimizer_state", ...). */
const char* memCategoryName(MemCategory category);

// --- enablement (a bit of obs::observing(), see obs/trace.h) ------------

/**
 * True while the live-tensor registry is recording. The disabled fast
 * path — what every TensorStorage construction/destruction pays — is a
 * single relaxed atomic load. The first call probes `SLAPO_MEM_PROFILE=1`
 * plus the budget/dump variables (any of which auto-enable).
 */
inline bool
memProfilingEnabled()
{
    return (observing() & kObserveMemory) != 0;
}

/** Programmatic switch (overrides the environment probe). Enabling does
 * not clear the registry; pair with memProfilerReset() in tests. */
void setMemProfilingEnabled(bool on);

// --- budget watchdog -----------------------------------------------------

/** What to do when live bytes cross the budget (beyond the dump). */
enum class MemBudgetAction
{
    Warn,  ///< dump forensics, keep going (default)
    Throw, ///< roll back the allocation and raise MemoryBudgetExceeded
};

/** The configured budget in bytes, or -1 when none. */
int64_t memBudgetBytes();

/** Set (or clear, with bytes < 0) the budget programmatically. */
void setMemBudget(int64_t bytes, MemBudgetAction action = MemBudgetAction::Warn);

/** Where budget crossings dump forensics ("" = nowhere). Overrides
 * SLAPO_MEM_DUMP. */
void setMemDumpPath(const std::string& path);

// --- recording hooks (tensor/tensor.cc, tensor/alloc.h) ------------------

/**
 * Register a storage allocation under the calling thread's current tag
 * (category scope, ModuleScope path, node scope, rank). `key` is the
 * storage identity later passed to memRecordFree — Tensor::storageKey()
 * for tensor storage. Callers must check memProfilingEnabled() first.
 * May throw MemoryBudgetExceeded (after rolling the entry back) when
 * the budget is crossed with action Throw.
 */
void memRecordAlloc(const void* key, int64_t bytes);

/** Same, with an explicit category overriding the thread scope. */
void memRecordAlloc(const void* key, int64_t bytes, MemCategory category);

/** Scratch variant: explicit Scratch category, never throws (a kernel
 * temporary must not leak its buffer to the watchdog). */
void memRecordScratch(const void* key, int64_t bytes) noexcept;

/** Unregister a storage. Unknown keys (allocated while the profiler was
 * off) are ignored. Never throws. */
void memRecordFree(const void* key) noexcept;

// --- thread tag scopes ---------------------------------------------------

/**
 * RAII category tag for allocations on the calling thread. The runtime
 * opens these at the sites that know what a tensor is for; untagged
 * allocations are activations. Free (no thread-local write) when the
 * profiler is disabled.
 */
class MemCategoryScope
{
  public:
    explicit MemCategoryScope(MemCategory category);
    ~MemCategoryScope();
    MemCategoryScope(const MemCategoryScope&) = delete;
    MemCategoryScope& operator=(const MemCategoryScope&) = delete;

  private:
    MemCategory prev_{};
    bool active_ = false;
};

/**
 * RAII node tag: the graph node (id + stamped primitive) the executor is
 * currently running, so tensors allocated inside kernels attribute to
 * the node that produced them. `primitive` must outlive the scope (it is
 * the node's provenance string). Free when the profiler is disabled.
 */
class MemNodeScope
{
  public:
    MemNodeScope(int64_t node_id, const std::string* primitive);
    ~MemNodeScope();
    MemNodeScope(const MemNodeScope&) = delete;
    MemNodeScope& operator=(const MemNodeScope&) = delete;

  private:
    int64_t prev_id_ = -1;
    const std::string* prev_primitive_ = nullptr;
    bool active_ = false;
};

/** Tag the calling thread's allocations with a data-parallel rank or
 * pipeline stage index (-1 = untagged). Cheap; callable always. */
void setMemThreadRank(int rank);

/** Re-attribute one live storage to a new owner rank (elastic rebuild:
 * a surviving rank inherits another rank's shards). Unknown keys are
 * ignored. */
void memRetagRank(const void* key, int rank);

// --- reports -------------------------------------------------------------

/** One (category, module, primitive) attribution row. */
struct MemRow
{
    MemCategory category = MemCategory::Activation;
    std::string module_path; ///< dotted owner path ("" = root)
    std::string primitive;   ///< resolved primitive or "baseline"
    int64_t bytes = 0;
};

/** One live tensor (the top-K list of a peak report). */
struct MemTensorRow
{
    int64_t bytes = 0;
    MemCategory category = MemCategory::Activation;
    std::string module_path;
    std::string primitive;
    int64_t node_id = -1;
    int rank = -1;
};

/**
 * Snapshot taken at (a hysteresis step under) the live-bytes high
 * watermark: where the bytes were when memory peaked.
 */
struct MemPeakReport
{
    int64_t peak_bytes = 0;       ///< registry high watermark
    int64_t live_bytes = 0;       ///< live bytes at snapshot time
    int64_t attributed_bytes = 0; ///< Σ rows (== live at snapshot)
    int64_t retained_bytes = 0;   ///< allocator free-list bytes (pooled,
                                  ///< freed-but-cached — NOT live)
    int64_t budget_bytes = -1;    ///< configured budget (-1 = none)
    int64_t category_bytes[kNumMemCategories] = {}; ///< live per category

    std::vector<MemRow> rows;       ///< sorted by bytes desc
    std::vector<MemTensorRow> top;  ///< top-K live tensors, bytes desc

    /** attributed_bytes / peak_bytes — the ≥ 0.9 acceptance gate. */
    double attributedFraction() const;

    /** {"parameter":N,...} in category order. */
    std::string categoriesJson() const;

    /** The whole report as one JSON object (kind "mem_peak_report"). */
    std::string toJson() const;
};

/** Copy of the most recent peak snapshot (empty when never enabled). */
MemPeakReport memPeakReport();

/** Live bytes currently tracked by the registry. */
int64_t memLiveBytes();

/** Live bytes of one category currently tracked by the registry. */
int64_t memCategoryLiveBytes(MemCategory category);

/** Number of live entries in the registry (leak checks in tests). */
int64_t memRegistrySize();

/** Look up one live entry; false when the key is not registered. */
bool memLookup(const void* key, MemTensorRow* out);

/** Write memPeakReport().toJson() to `path` (forensics dump format). */
void writeMemDump(const std::string& path);

/** Drop every entry, aggregate, and the peak snapshot (tests). Do not
 * call with MemWindow instances alive. */
void memProfilerReset();

/**
 * RAII per-step/per-trial window: records the in-window peak of tagged
 * live bytes and the per-category breakdown at that peak. Stackable
 * (StepReportBuilder, trainers, and tuner trials each hold their own).
 * Inert when the profiler is disabled at construction.
 */
class MemWindow
{
  public:
    MemWindow();
    ~MemWindow();
    MemWindow(const MemWindow&) = delete;
    MemWindow& operator=(const MemWindow&) = delete;

    /** True when the profiler was enabled at construction. */
    bool active() const;

    /** Peak tagged live bytes inside the window so far. */
    int64_t peakBytes() const;

    /** Live bytes of `category` at the window's peak. */
    int64_t categoryPeakBytes(MemCategory category) const;

    /** {"parameter":N,...} at the window's peak. */
    std::string categoriesJson() const;

    struct State; ///< implementation detail (registry needs the type)

  private:
    State* state_ = nullptr;
};

// --- sim-model side channel (tuner measured-vs-predicted) ----------------

/**
 * Thread-local mailbox the analytical memory model fills: sim's
 * TrainingSimulator::simulate() reports its predicted peak here, and the
 * tuner's per-trial evaluator consumes it to log the measured-vs-sim
 * relative error in every tuner.trial record. Lives in obs so sim and
 * tuner need no dependency on each other.
 */
void reportSimPeakBytes(double predicted_peak_bytes);

/** Consume the last reported prediction (-1 when none since the last
 * take). */
double takeSimPeakBytes();

} // namespace obs
} // namespace slapo
