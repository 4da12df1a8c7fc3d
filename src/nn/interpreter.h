/**
 * @file
 * The one forward executor for traced graphs.
 *
 * `interpretGraph` runs a graph by re-dispatching every node through
 * nn::F, so eager numerics, meta shape propagation, and cost profiling
 * all keep working on scheduled graphs exactly as they do on
 * unscheduled forwards. One loop serves two callers:
 *
 *  - **Eval** (no frame): Module::call replays a module's `.trace()`d
 *    graph. The memory plan (graph/memplan.h) releases each value at its
 *    last use and rewrites some ops in place.
 *  - **Recording** (a Frame): the autograd engine's training forward and
 *    its checkpoint recompute. The frame keeps every value for the
 *    backward walk, so no plan applies. Each CallModule and FusedOp child
 *    records into a child frame of its own, and a child module runs the
 *    graph the frame's GraphCache gives for its input shapes.
 *
 * Either way a CallModule goes through Module::call, so a module's
 * forward `.sync()` points apply once, at its call boundary.
 */
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "nn/value.h"

namespace slapo {
namespace nn {

class Module;

/**
 * The graphs a recording run executes, keyed on (module, input shapes):
 * a module's installed `.trace()` graph, else a trace of its forward
 * made on first use. A traced graph bakes in its input shapes, so a
 * child called with two shapes in one run needs two. Each autograd
 * engine owns one, scoped to the engine.
 */
class GraphCache
{
  public:
    const graph::Graph& graphFor(Module& module,
                                 const std::vector<Value>& inputs);

  private:
    std::map<const Module*,
             std::map<std::vector<Shape>, std::shared_ptr<graph::Graph>>>
        graphs_;
};

/**
 * The values of one run of one graph, stored densely by node id
 * (indexed by Node::id, sized by Graph::idBound): one indexed load per
 * access on the hot loops. Every node yields at least one value, so an
 * empty slot is an undefined (or released) node.
 *
 * The interpreter keeps an eval run's values in a frame of its own. A
 * recording frame (one with a GraphCache) is the caller's: it outlives
 * the run, so the backward walk reads the recorded activations and the
 * children's frames from it.
 */
struct Frame
{
    explicit Frame(const graph::Graph& graph, GraphCache* graphs = nullptr,
                   int64_t* stored_bytes = nullptr);

    /** The graph this frame holds the values of. */
    const graph::Graph* graph;
    /** Recording only: where child modules' graphs come from. */
    GraphCache* graphs;
    /**
     * Recording only: the retained-activation byte count every CallOp
     * output that owns its storage adds to (views and aliases add
     * nothing). Null inside a checkpointed child, whose values are
     * dropped after its forward and recomputed in backward.
     */
    int64_t* stored_bytes;
    std::vector<std::vector<Value>> env;
    /** Recording only: the frames of CallModule and FusedOp children.
     * A checkpointed child keeps none. */
    std::map<const graph::Node*, std::unique_ptr<Frame>> children;

    bool recording() const { return graphs != nullptr; }
    bool has(const graph::Node* n) const;
    const std::vector<Value>& at(const graph::Node* n) const;
    void put(const graph::Node* n, std::vector<Value> values);
    void evict(const graph::Node* n);
};

/**
 * Execute `graph` on `inputs`, returning outputs. With a `frame` (built
 * for `graph`), record every value into it.
 */
std::vector<Value> interpretGraph(const graph::Graph& graph,
                                  const std::vector<Value>& inputs,
                                  Frame* frame = nullptr);

/**
 * Execute a single CallOp node given its input values (shared by the
 * interpreter and the autograd engine's checkpoint rematerialization).
 */
Value interpretOp(const graph::Node& node, const std::vector<Value>& inputs);

} // namespace nn
} // namespace slapo
