/**
 * @file
 * Per-op aggregate profiler: count / total / mean / p99 wall time per
 * (node op, module path) pair across every executed graph node
 * (docs/OBSERVABILITY.md).
 *
 * Where obs/trace.h answers "what did this step's timeline look like",
 * the OpProfiler answers "where does the time go in aggregate" — the
 * per-primitive attribution the paper's evaluation breaks speedups down
 * by (Figs. 7-11).
 *
 * Every measured execution goes through one RAII OpScope: the graph
 * interpreter's nodes, the backward walk's nodes, `.sync()` boundaries,
 * and the runtime's own rows (trainer phases, pipeline stages, executor
 * and engine remainders). Behind one relaxed atomic load of observing()
 * it opens the trace span, tags the memory profiler and, on close,
 * passes the row to every installed profiler. Any number of profilers
 * can be installed at once (a user's, SLAPO_OP_PROFILE's, each step
 * report's), and each sees every row.
 *
 * Aggregation keeps exact count and total; p99 comes from a fixed
 * 256-bucket log-scale histogram (4 sub-buckets per octave, <= 19%
 * relative error), so memory stays bounded no matter how many steps are
 * profiled.
 *
 * Usage:
 *   obs::OpProfiler profiler;
 *   { obs::OpProfilerGuard guard(&profiler); trainer.step(...); }
 *   std::cout << profiler.table();
 *
 * Or from the environment: SLAPO_OP_PROFILE=1 installs a process-wide
 * profiler and prints the table to stderr at exit (SLAPO_OP_PROFILE can
 * also name a JSON output file).
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/mem_profiler.h"
#include "obs/trace.h"

namespace slapo {
namespace obs {

/** Aggregated timing of one (op, module path, primitive) triple. */
struct OpStats
{
    std::string op;          ///< op kind / module type ("LinearOp", ...)
    std::string module_path; ///< dotted owner path ("" = root)
    std::string primitive;   ///< schedule primitive stamped on the node
                             ///< ("" = not stamped; see obs/provenance.h)
    int64_t count = 0;
    int64_t total_ns = 0;
    double mean_ns = 0;
    int64_t p99_ns = 0; ///< histogram-bucket upper bound
};

/** Thread-safe aggregate profiler; install with OpProfilerGuard. */
class OpProfiler
{
  public:
    OpProfiler();
    ~OpProfiler();
    OpProfiler(const OpProfiler&) = delete;
    OpProfiler& operator=(const OpProfiler&) = delete;

    /**
     * Fold one execution of `op` (under `module_path`) into the stats,
     * tagged with the schedule primitive responsible for it
     * (graph::Node::provenance().primitive, "sync" for `.sync()`
     * boundaries, "" when unstamped).
     */
    void record(const std::string& op, const std::string& module_path,
                const std::string& primitive, int64_t duration_ns);

    /** Aggregates, sorted by total time descending. */
    std::vector<OpStats> report() const;

    /** Human-readable fixed-width table of report(). */
    std::string table() const;

    /** report() as a JSON array. */
    std::string toJson() const;

    void clear();

  private:
    struct Impl;
    Impl* impl_;
};

/**
 * RAII installation of an OpProfiler: the profiler joins the
 * process-wide list every OpScope reports to, and leaves it (by
 * identity) when the guard is destroyed. Guards on any threads may be
 * removed in any order. Once the destructor returns, no thread is still
 * recording into the profiler.
 */
class OpProfilerGuard
{
  public:
    explicit OpProfilerGuard(OpProfiler* profiler);
    ~OpProfilerGuard();
    OpProfilerGuard(const OpProfilerGuard&) = delete;
    OpProfilerGuard& operator=(const OpProfilerGuard&) = delete;

  private:
    OpProfiler* profiler_;
};

/**
 * Pass one row to every installed profiler, as an OpScope does when it
 * closes. For windows no scope can enclose (DistExecutor's per-rank
 * spawn and join time).
 */
void profileOp(const std::string& op, const std::string& module_path,
               const std::string& primitive, int64_t duration_ns);

/**
 * Thread-local dotted module-path scope shared by the interpreter and
 * the autograd engine: a CallModule pushes its target name so the ops
 * it executes are attributed to the right submodule. The push is
 * skipped when no consumer is observing.
 */
class ModuleScope
{
  public:
    explicit ModuleScope(const std::string& name, int observed = observing());
    ~ModuleScope();
    ModuleScope(const ModuleScope&) = delete;
    ModuleScope& operator=(const ModuleScope&) = delete;

    /** Current dotted path of the calling thread ("" at the root). */
    static const std::string& currentPath();

  private:
    size_t restore_len_ = SIZE_MAX; ///< path length to truncate back to
};

/** What an OpScope measures besides its row's op and primitive. */
struct OpSite
{
    const char* suffix = "";             ///< appended to the op (".bwd")
    int64_t node_id = -1;                ///< graph node: its memory tag
    const std::string* node = nullptr;   ///< graph node: span arg "node"
    const char* span = nullptr;          ///< span name, if not the op's
    const char* category = "op";         ///< span category
    const std::string* module = nullptr; ///< row module (default: thread's)
    /** The row is the scope's wall minus the rows closed inside it on
     * this thread (a remainder row, recorded when positive); no span. */
    bool self_time = false;
};

/**
 * The one per-op instrumentation scope. `observed` is the caller's
 * observing() read; with it 0 the scope does nothing more (no clock
 * read, no allocation). Otherwise it opens the span (tracing), tags
 * allocations with the node (memory profiler) and, on close, passes
 * (op + suffix, module path, primitive, ns) to every installed
 * profiler. `primitive` (and the site's strings) must outlive the scope.
 */
class OpScope
{
  public:
    OpScope(const char* op, const std::string& primitive,
            const OpSite& site = {}, int observed = observing())
    {
        if (observed != 0) {
            open(op, primitive, site, observed);
        }
    }

    ~OpScope()
    {
        if (observed_ != 0) {
            close();
        }
    }

    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

    /** Nanoseconds since the scope opened; -1 unless it is timing a row. */
    int64_t elapsedNs() const;

    /** The live span (to attach args), or null when not tracing. */
    TraceSpan* span() { return span_ ? &*span_ : nullptr; }

  private:
    void open(const char* op, const std::string& primitive,
              const OpSite& site, int observed);
    void close();

    int observed_ = 0;
    std::string name_;
    const std::string* primitive_ = nullptr;
    const std::string* module_ = nullptr;
    bool self_time_ = false;
    int64_t start_ns_ = 0;
    int64_t nested_before_ns_ = 0;
    std::optional<TraceSpan> span_;
    std::optional<MemNodeScope> mem_;
};

} // namespace obs
} // namespace slapo
