/**
 * @file
 * Ambient execution contexts consulted by nn::F op dispatch.
 *
 * Three orthogonal, thread-local contexts:
 *  - TracingState: ops append IR nodes instead of computing (§3.3 trace);
 *  - CostRecorder: eager ops report their cost signature (FLOPs, bytes,
 *    activation footprint) — the input of the performance simulator;
 *  - DistContext: the calling thread is rank r of an N-way group;
 *    collective ops go through the ProcessGroup (runtime/) or, in meta
 *    profiling, are just accounted for.
 *
 * Contexts are RAII-scoped via the *Guard classes.
 */
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace slapo {

namespace runtime {
class ProcessGroup; // defined in runtime/process_group.h
} // namespace runtime

namespace nn {

class Module;

/** Options of the `.trace(leaves, flatten)` primitive. */
struct TraceOptions
{
    /**
     * When false (default), every direct child module becomes a
     * CallModule node. When true, non-leaf children are inlined
     * recursively so the graph reaches primitive-op granularity.
     */
    bool flatten = false;

    /** Module *paths* (relative to the traced root) never to inline. */
    std::set<std::string> leaf_paths;

    /** Module *type names* never to inline (adds to the default set). */
    std::set<std::string> leaf_types;

    /**
     * Default framework leaves (Linear, LayerNorm, Embedding, Conv2d,
     * BatchNorm2d), kept as CallModule even when flattening — unless a
     * module was `.decompose()`d.
     */
    bool default_leaf_types = true;
};

/** Active symbolic-tracing session (one per .trace() call). */
class TracingState
{
  public:
    TracingState(graph::Graph* graph, TraceOptions options)
        : graph_(graph), options_(std::move(options)) {}

    graph::Graph* graph() const { return graph_; }
    const TraceOptions& options() const { return options_; }

    /** Dotted path of the module currently executing, "" at the root. */
    std::string currentPath() const;

    void pushModule(const std::string& name) { stack_.push_back(name); }
    void popModule() { stack_.pop_back(); }

    /** The live tracing state of this thread, or nullptr. */
    static TracingState* current();

  private:
    friend class TracingGuard;
    graph::Graph* graph_;
    TraceOptions options_;
    std::vector<std::string> stack_;
};

/** RAII activation of a TracingState on this thread. */
class TracingGuard
{
  public:
    explicit TracingGuard(TracingState* state);
    ~TracingGuard();
    TracingGuard(const TracingGuard&) = delete;
    TracingGuard& operator=(const TracingGuard&) = delete;

  private:
    TracingState* previous_;
};

/** One profiled kernel launch (a primitive op, a fused kernel, or a
 * hand-written efficient kernel). */
struct KernelRecord
{
    std::string name;        ///< op kind or kernel name
    std::string module_path; ///< dotted owner path ("" = root)
    double flops = 0;        ///< floating-point operations
    double bytes_in = 0;     ///< bytes read (at model precision)
    double bytes_out = 0;    ///< bytes written
    double activation_bytes = 0; ///< output bytes that must persist for bwd
    bool checkpointed = false;   ///< inside a .checkpoint() scope
    bool recompute_free = false; ///< fused/efficient kernel: cheap recompute
};

/** One profiled collective. */
struct CommRecord
{
    std::string kind; ///< "all_reduce" | "all_gather" | "reduce_scatter"
    double bytes = 0; ///< payload bytes at model precision
    bool backward = false; ///< issued by the backward pass
    std::string module_path;
};

/** Cost signature of one forward pass, consumed by sim::TrainingSimulator. */
struct Profile
{
    std::vector<KernelRecord> kernels;
    std::vector<CommRecord> comms;
    /**
     * Bytes of checkpointed-module *boundary* inputs: what the backward
     * pass keeps for recomputation instead of full activations.
     */
    double checkpoint_boundary_bytes = 0;

    double totalFlops() const;
    double totalKernels() const { return static_cast<double>(kernels.size()); }
    double totalActivationBytes() const;
    double commBytes(bool backward) const;
};

/** Eager-execution cost recorder. */
class CostRecorder
{
  public:
    /** @param bytes_per_element model precision (2 = fp16, 4 = fp32). */
    explicit CostRecorder(double bytes_per_element = 2.0)
        : bytes_per_element_(bytes_per_element) {}

    double bytesPerElement() const { return bytes_per_element_; }

    void beginModule(const std::string& name, bool checkpointed);
    void endModule();

    /** Collapse all ops until the matching end into one kernel record. */
    void beginKernelScope(const std::string& name, bool recompute_free);
    void endKernelScope();

    void recordOp(const std::string& name, double flops, double elems_in,
                  double elems_out);
    void recordComm(const std::string& kind, double elems,
                    bool backward = false);

    /** Input bytes retained at a checkpointed-module boundary. */
    void recordCheckpointBoundary(double elems);

    const Profile& profile() const { return profile_; }
    Profile takeProfile() { return std::move(profile_); }

    static CostRecorder* current();

  private:
    friend class CostRecorderGuard;
    std::string path() const;

    double bytes_per_element_;
    Profile profile_;
    std::vector<std::string> module_stack_;
    std::vector<bool> ckpt_frames_;
    int checkpoint_depth_ = 0;
    // Pending fused-kernel accumulation (nested scopes collapse into the
    // outermost one).
    int kernel_scope_depth_ = 0;
    KernelRecord pending_;
};

/** RAII activation of a CostRecorder on this thread. */
class CostRecorderGuard
{
  public:
    explicit CostRecorderGuard(CostRecorder* recorder);
    ~CostRecorderGuard();
    CostRecorderGuard(const CostRecorderGuard&) = delete;
    CostRecorderGuard& operator=(const CostRecorderGuard&) = delete;

  private:
    CostRecorder* previous_;
};

/** This thread is rank `rank` of `world_size`; collectives use `group`
 * when set (numeric) or are merely accounted (meta profiling). */
struct DistContext
{
    int rank = 0;
    int world_size = 1;
    runtime::ProcessGroup* group = nullptr;
    /**
     * The group's membership generation (elastic world epoch) this
     * thread was spawned into; 0 = don't enforce. When set, a deposit
     * into a group whose membership has since been rebuilt is rejected
     * with a stale-generation CollectiveError instead of silently
     * joining a world the rank no longer belongs to.
     */
    int64_t membership_generation = 0;

    static DistContext* current();
};

/** RAII activation of a DistContext on this thread. */
class DistGuard
{
  public:
    explicit DistGuard(DistContext* context);
    ~DistGuard();
    DistGuard(const DistGuard&) = delete;
    DistGuard& operator=(const DistGuard&) = delete;

  private:
    DistContext* previous_;
};

} // namespace nn
} // namespace slapo
