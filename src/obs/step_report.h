/**
 * @file
 * Schedule-aware step reports: one JSON document per optimizer step
 * decomposing the step's wall time into compute / comm / pipeline-bubble
 * / other, rolled up per schedule primitive and per module path
 * (docs/OBSERVABILITY.md, "Attribution & step reports").
 *
 * The report is the layer that turns raw telemetry into schedule
 * decisions: every profiler row is attributed to the primitive
 * responsible for it — the node's stamped graph::Provenance when the
 * primitive rewrote the graph (.fuse(), .replace()), the provenance
 * registry's longest-prefix match when it only reshaped module metadata
 * (.shard(), .checkpoint(), …), and "baseline" for untouched
 * computation — so `diffReports` can answer "did .shard() on layer 3
 * pay for its syncs?" between two runs.
 *
 * Cost discipline: when step reports are disabled (the default), the
 * trainers pay one relaxed atomic load per step — nothing else changes.
 * When enabled (`SLAPO_STEP_REPORT=reports.jsonl` or
 * `setStepReportsEnabled(true)`), each step's report collects its rows
 * next to any other installed profiler (a user's, SLAPO_OP_PROFILE's),
 * which adds the per-node record cost documented in
 * docs/OBSERVABILITY.md (~100–200 ns per executed graph node).
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace slapo {
namespace obs {

class OpProfiler;

/** One attributed profiler row (primitive is never empty here). */
struct AttributedOp
{
    std::string op;          ///< op name, ".bwd"-suffixed for backward
    std::string module_path; ///< dotted owner path ("" = root)
    std::string primitive;   ///< resolved primitive or "baseline"
    int64_t count = 0;
    int64_t total_ns = 0;
    double mean_ns = 0;
    int64_t p99_ns = 0;
};

/** Per-primitive rollup of attributed time. */
struct PrimitiveTotal
{
    std::string primitive;
    int64_t total_ns = 0;
    int64_t count = 0; ///< row executions folded into this primitive
};

/** Per-module rollup (with the primitive that claims the module). */
struct ModuleTotal
{
    std::string module_path;
    std::string primitive;
    int64_t total_ns = 0;
};

/**
 * One step's attributed breakdown. All *_ns components are per-rank
 * means (profiler totals divided by `world_size`), so they are
 * commensurable with the step's wall time:
 *
 *   wall_ns ≈ compute_ns + comm_ns + pipeline_bubble_ns + other_ns
 *
 * `comm_ns` covers the timed collective boundaries (.sync() rows and
 * the data-parallel gradient exchange); `pg_wait_ns` inside it is the
 * pure rendezvous wait from the always-on metrics. Allocator behaviour
 * is reported as counts (pool hits/misses/reuse) — allocation time is
 * spent inside kernels and therefore already counted in compute.
 */
struct StepReport
{
    int64_t step = -1; ///< optimizer step index (-1 = not from a trainer)
    int world_size = 1;
    int64_t wall_ns = 0;

    int64_t compute_ns = 0;         ///< attributed non-comm row time / world
    int64_t comm_ns = 0;            ///< sync + gradient-exchange rows / world
    int64_t pipeline_bubble_ns = 0; ///< pipeline queue-wait delta / world
    int64_t other_ns = 0;           ///< wall − the above (≥ 0)

    int64_t pg_wait_ns = 0; ///< rendezvous wait inside comm_ns / world
    int64_t alloc_pool_hits = 0;
    int64_t alloc_pool_misses = 0;
    int64_t alloc_reuse_bytes = 0;

    // Memory section (obs/mem_profiler.h). All zeros / empty unless
    // memProfilingEnabled() was on for the step. `mem_category_bytes`
    // holds (category name, bytes) at the step's live-byte peak, so a
    // checkpointed schedule shows lower activation bytes and a sharded
    // one lower parameter bytes in the same report that shows their
    // time cost. `mem_retained_bytes` is the allocator's free-list
    // level — freed-but-cached storage, deliberately separate from
    // live bytes (docs/PERFORMANCE.md).
    int64_t mem_peak_bytes = 0;     ///< in-step peak of tagged live bytes
    int64_t mem_live_bytes = 0;     ///< tagged live bytes at step end
    int64_t mem_retained_bytes = 0; ///< pool free-list bytes at step end
    std::vector<std::pair<std::string, int64_t>> mem_category_bytes;

    std::vector<PrimitiveTotal> primitives; ///< sorted by total desc
    std::vector<ModuleTotal> modules;       ///< sorted by total desc
    std::vector<AttributedOp> ops;          ///< sorted by total desc

    /** Cross-rank spread (DistMetricsReport::toJson), "" when absent. */
    std::string per_rank_json;

    /** Σ per-primitive time (per-rank mean) / wall — the attribution
     * coverage the acceptance gate asserts ≥ 0.95 on. */
    double attributedFraction() const;

    /** Per-primitive rollup as a JSON array (embedded by tuner.trial). */
    std::string primitivesJson() const;

    /** The whole report as one JSON object (kind "step_report"). */
    std::string toJson() const;
};

/**
 * Build a report from a profiler's aggregates. `window` values are the
 * step's metric deltas in Metrics::snapshot() order (as returned by
 * MetricsDelta::values()); pass {} to skip the metric components.
 */
StepReport buildStepReport(
    const OpProfiler& profiler,
    const std::vector<std::pair<std::string, int64_t>>& window,
    int64_t wall_ns, int world_size, int64_t step);

/**
 * RAII per-step collection: at construction, installs a fresh
 * OpProfiler (next to any already installed) and opens a metrics
 * window; finish() builds the report from both. Used by the trainers
 * when stepReportsEnabled().
 */
class StepReportBuilder
{
  public:
    explicit StepReportBuilder(int world_size = 1);
    ~StepReportBuilder();
    StepReportBuilder(const StepReportBuilder&) = delete;
    StepReportBuilder& operator=(const StepReportBuilder&) = delete;

    /** Build the report for the elapsed window (callable once). */
    StepReport finish(int64_t step);

  private:
    struct Impl;
    Impl* impl_;
};

// --- enablement (one-relaxed-atomic pattern, see obs/trace.h) -----------

/** True when trainers should produce step reports. First call probes
 * `SLAPO_STEP_REPORT`; the hot-path cost when disabled is this one
 * relaxed atomic load. */
bool stepReportsEnabled();

/** Programmatic switch (overrides the environment probe). */
void setStepReportsEnabled(bool on);

/** Append `report.toJson()` as one line to the SLAPO_STEP_REPORT file
 * (no-op when the variable named no path, e.g. enabled
 * programmatically). */
void maybeWriteStepReport(const StepReport& report);

// --- diff + regression gate ---------------------------------------------

/** One compared entry of a report diff. */
struct ReportDelta
{
    std::string key; ///< "primitive:fuse" or "op:LinearOp@encoder.layer.0"
    int64_t before_ns = 0;
    int64_t after_ns = 0;
    double pct = 0; ///< (after − before) / before × 100
    bool regression = false;
};

/** Thresholds deciding when a delta counts as a regression. */
struct DiffOptions
{
    double threshold_pct = 20.0; ///< relative slowdown to flag
    /** Entries whose before-time is under this floor are never flagged —
     * sub-millisecond rows are timing noise at test scale. */
    int64_t min_ns = 1000000;
};

/** diffReports() result. */
struct ReportDiff
{
    std::vector<ReportDelta> primitives;
    std::vector<ReportDelta> ops;
    std::vector<ReportDelta> regressions; ///< flagged entries of the above
    double wall_pct = 0;                  ///< wall-time change, percent

    bool hasRegressions() const { return !regressions.empty(); }
    std::string toJson() const;
};

/**
 * Per-primitive and per-op deltas of `after` relative to `before`.
 * Entries present in only one report are compared against 0 (new work
 * above the floor in `after` is flagged).
 */
ReportDiff diffReports(const StepReport& before, const StepReport& after,
                       DiffOptions options = {});

} // namespace obs
} // namespace slapo
