/**
 * @file
 * The module system: hierarchical model building blocks, mirroring
 * PyTorch's nn.Module (§2/§3 of the paper).
 *
 * A Module owns named parameters and named submodules (ordered), and
 * implements `forward` against nn::F ops so it runs eagerly, propagates
 * meta shapes, or traces symbolically without any change. The schedule
 * language (src/core) never edits forward methods; it mutates the
 * per-module ScheduleMeta (shards, syncs, checkpoint flags, traced graph)
 * and swaps submodules — exactly the decoupling the paper proposes.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/context.h"
#include "nn/value.h"

namespace slapo {
namespace nn {

class Module;
using ModulePtr = std::shared_ptr<Module>;
struct Frame;

/** How a `.sync()` aggregates partial results at a module boundary. */
enum class SyncKind
{
    AllReduce,     ///< sum partial outputs (row-sharded linear)
    AllGather,     ///< concatenate shards along `axis`
    ReduceScatter, ///< sum then keep this rank's slice along `axis`
};

/** When the `.sync()` fires. */
enum class SyncDirection
{
    Forward,  ///< aggregate forward activations
    Backward, ///< aggregate input gradients
    Both,
};

/** One scheduled synchronization point. */
struct SyncSpec
{
    SyncDirection direction = SyncDirection::Forward;
    SyncKind kind = SyncKind::AllReduce;
    int64_t axis = -1; ///< gather/scatter axis (ignored for all-reduce)
};

/** Parameter sharding decision recorded by `.shard(name, axis)`. */
struct ShardSpec
{
    int64_t axis = 0;
    int world_size = 1;
    /**
     * Number of interleaved groups along the shard axis. A fused-QKV
     * weight of shape (3H, H) sharded with interleave=3 gives each rank
     * [q_r; k_r; v_r] rather than a contiguous slice, keeping the split
     * into thirds correct after sharding (Megatron's fused layout).
     */
    int64_t interleave = 1;
};

/**
 * Execution strategy attached to a module by schedule primitives. The
 * module definition itself never changes; this is the "schedule".
 */
struct ScheduleMeta
{
    /** param name -> shard decision. */
    std::map<std::string, ShardSpec> sharded_params;
    /** synchronization points applied to this module's output/grad. */
    std::vector<SyncSpec> syncs;
    /** activation checkpointing wraps this module. */
    bool checkpointed = false;
    /** `.pipeline_split()`: a stage boundary after this module. */
    bool pipeline_split_after = false;
    /** `.decompose()`: inline this leaf into primitive ops when tracing. */
    bool decomposed = false;
    /** static graph installed by `.trace()` (and rewritten by fuse etc.). */
    std::shared_ptr<graph::Graph> traced_graph;
};

/**
 * Base class of every model building block.
 *
 * Subclasses register parameters/children in their constructor and
 * implement forward(). Use call() — not forward() directly — so the
 * traced graph, sync hooks, profiler scopes, and checkpoint scopes all
 * apply.
 */
class Module : public std::enable_shared_from_this<Module>
{
  public:
    explicit Module(std::string type_name) : type_name_(std::move(type_name)) {}
    virtual ~Module() = default;
    Module(const Module&) = delete;
    Module& operator=(const Module&) = delete;

    /** The computation; write it once against nn::F ops. */
    virtual std::vector<Value> forward(const std::vector<Value>& inputs) = 0;

    /**
     * Execute with all scheduling applied: dispatches to the traced graph
     * if installed, wraps profiler/checkpoint scopes, applies forward
     * sync points. This is the only correct way to invoke a module.
     *
     * With a recording `frame` (the autograd engine's training forward),
     * runs the frame's graph and records every value into it.
     */
    std::vector<Value> call(const std::vector<Value>& inputs,
                            Frame* frame = nullptr);

    /** Convenience for single-output modules. */
    Value callOne(const std::vector<Value>& inputs);

    // --- identity -----------------------------------------------------

    const std::string& typeName() const { return type_name_; }

    /**
     * Whether the symbolic tracer can capture this module's forward.
     * Mirrors the paper's "coding style" limitation (§5.1, GPT-Neo): some
     * real models defeat whole-graph tracers; we reproduce that with an
     * explicit flag so the TorchScript baseline fails where the paper's
     * did while per-submodule tracing still works.
     */
    bool traceable() const { return traceable_; }
    void setTraceable(bool v) { traceable_ = v; }

    /**
     * Hand-written efficient kernels (flash attention, fused bias-GeLU)
     * execute as a single launch and keep no quadratic intermediates;
     * the profiler collapses their ops into one KernelRecord.
     */
    virtual bool profileAsKernel() const { return false; }

    /** Efficient kernels recompute cheaply (flash attention backward). */
    virtual bool recomputeFree() const { return false; }

    // --- parameters -----------------------------------------------------

    /** Register a parameter tensor under `name`. */
    void registerParam(const std::string& name, Tensor tensor);

    bool hasParam(const std::string& name) const;
    /** Remove a parameter (and any shard decision recorded for it). */
    void removeParam(const std::string& name);
    Tensor& paramTensor(const std::string& name);
    const Tensor& paramTensor(const std::string& name) const;
    void setParamTensor(const std::string& name, Tensor tensor);
    std::vector<std::string> paramNames() const;

    /**
     * Access a parameter as a Value: eager outside tracing; a GetParam
     * node when this module is being inlined into a traced graph.
     */
    Value param(const std::string& name);

    // --- children -----------------------------------------------------

    /** Register an owned child module under `name`. */
    void registerChild(const std::string& name, ModulePtr module);

    bool hasChild(const std::string& name) const;
    ModulePtr child(const std::string& name) const;
    /** Swap a child (the `.replace()` primitive's mechanism). */
    void replaceChild(const std::string& name, ModulePtr module);
    const std::vector<std::pair<std::string, ModulePtr>>& children() const
    {
        return children_;
    }

    /**
     * Invoke a child from inside forward(). Under tracing this decides
     * between emitting a CallModule node and inlining, per TraceOptions.
     */
    std::vector<Value> callChild(const std::string& name,
                                 const std::vector<Value>& inputs);
    Value callChildOne(const std::string& name,
                       const std::vector<Value>& inputs);

    // --- tree traversal ---------------------------------------------------

    /** Resolve a dotted path ("encoder.layer.3.attention"); "" = this. */
    ModulePtr findByPath(const std::string& path);

    /** All (path, module) pairs in pre-order, including this ("" path). */
    std::vector<std::pair<std::string, Module*>> namedModules();

    /** All (path, param-name) pairs with their tensors, in pre-order. */
    std::vector<std::pair<std::string, Tensor*>> namedParams();

    /** Total parameter element count of the subtree. */
    int64_t numParams() const;

    /** Materialize every meta parameter in the subtree with random init. */
    void initializeParams(uint64_t seed);

    /**
     * Structural deep copy: clones the module tree and parameter tensors
     * (meta stays meta) and copies schedule metadata. Used by the
     * verifier (keep an unscheduled reference) and the distributed
     * runtime (per-rank replicas).
     */
    virtual ModulePtr clone() const = 0;

    // --- schedule metadata ----------------------------------------------

    ScheduleMeta& meta() { return meta_; }
    const ScheduleMeta& meta() const { return meta_; }

  protected:
    /** Helper for clone(): copy params, children, meta, flags into dst. */
    void cloneInto(Module* dst) const;

  private:
    std::vector<Value> runForward(const std::vector<Value>& inputs,
                                  Frame* frame);
    std::vector<Value> applyForwardSyncs(std::vector<Value> outputs);

    std::string type_name_;
    bool traceable_ = true;
    std::vector<std::pair<std::string, Tensor>> params_;
    std::vector<std::pair<std::string, ModulePtr>> children_;
    ScheduleMeta meta_;
};

/** Collective helpers shared by sync hooks and parallel modules. */
namespace F {
Value allReduce(const Value& x);
Value allGather(const Value& x, int64_t axis);
Value reduceScatter(const Value& x, int64_t axis);
} // namespace F

} // namespace nn
} // namespace slapo
