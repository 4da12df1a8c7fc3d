#include "runtime/autograd.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>

#include "graph/memplan.h"
#include "nn/functional.h"
#include "nn/interpreter.h"
#include "nn/tracer.h"
#include "obs/mem_profiler.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "runtime/process_group.h"
#include "tensor/ops.h"

namespace slapo {
namespace runtime {

using graph::Graph;
using graph::Node;
using graph::NodeKind;
using graph::OpKind;
using nn::Module;
using nn::SyncDirection;
using nn::SyncKind;
using nn::SyncSpec;
using nn::Value;

/** Per-graph activation store kept between forward and backward. */
struct AutogradEngine::Frame
{
    /** Whether stored tensors count toward the activation-bytes metric. */
    bool counted = true;
    /**
     * Dense per-node-id activation store (indexed by Node::id, sized by
     * Graph::idBound): one indexed load per access on the hot
     * forward/backward loops instead of a std::map tree walk.
     */
    std::vector<std::vector<Tensor>> env;
    std::vector<char> defined;
    std::map<const Node*, std::unique_ptr<Frame>> children;

    void
    init(int64_t id_bound)
    {
        if (static_cast<int64_t>(env.size()) < id_bound) {
            env.resize(id_bound);
            defined.resize(id_bound, 0);
        }
    }

    bool
    has(const Node* n) const
    {
        return n->id() >= 0 &&
               n->id() < static_cast<int64_t>(defined.size()) &&
               defined[n->id()];
    }

    std::vector<Tensor>&
    at(const Node* n)
    {
        SLAPO_ASSERT(has(n), "autograd: missing activation for " << n->name());
        return env[n->id()];
    }

    void
    put(const Node* n, std::vector<Tensor> values)
    {
        SLAPO_ASSERT(n->id() >= 0 &&
                         n->id() < static_cast<int64_t>(env.size()),
                     "autograd: node id out of range for " << n->name());
        env[n->id()] = std::move(values);
        defined[n->id()] = 1;
    }

    void
    evict(const Node* n)
    {
        if (has(n)) {
            env[n->id()].clear();
            defined[n->id()] = 0;
        }
    }
};

namespace {

/**
 * Per-node timing for the autograd loops: a trace span plus an
 * OpProfiler record under the thread's module-path scope. `suffix`
 * separates backward executions (".bwd") from forward ones in the
 * aggregate report. Disabled cost: two relaxed atomic loads.
 */
class OpTimer
{
  public:
    OpTimer(const char* op, const char* suffix,
            const std::string& primitive = std::string())
        : profiler_(obs::OpProfiler::current())
    {
        if (profiler_ != nullptr || obs::tracingEnabled()) {
            name_ = op;
            name_ += suffix;
            primitive_ = primitive;
            span_.emplace(name_, "op");
            if (!obs::ModuleScope::currentPath().empty()) {
                span_->arg("module", obs::ModuleScope::currentPath());
            }
            if (!primitive_.empty()) {
                span_->arg("primitive", primitive_);
            }
            start_ = std::chrono::steady_clock::now();
        }
    }

    ~OpTimer()
    {
        if (profiler_ != nullptr) {
            const int64_t ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            profiler_->record(name_, obs::ModuleScope::currentPath(),
                              primitive_, ns);
        }
    }

  private:
    obs::OpProfiler* profiler_;
    std::string name_;
    std::string primitive_;
    std::optional<obs::TraceSpan> span_;
    std::chrono::steady_clock::time_point start_;
};

/** Numeric collective honoring the thread's DistContext (or identity). */
Tensor
applyCollective(SyncKind kind, int64_t axis, const Tensor& t)
{
    nn::DistContext* dc = nn::DistContext::current();
    if (dc == nullptr || dc->world_size == 1) {
        return t;
    }
    SLAPO_CHECK(dc->group != nullptr, "sync requires a live ProcessGroup");
    switch (kind) {
      case SyncKind::AllReduce: return dc->group->allReduce(dc->rank, t);
      case SyncKind::AllGather: return dc->group->allGather(dc->rank, t, axis);
      case SyncKind::ReduceScatter:
        return dc->group->reduceScatter(dc->rank, t, axis);
    }
    SLAPO_THROW("bad sync kind");
}

Tensor
applyForwardSyncs(const std::vector<SyncSpec>& syncs, Tensor t)
{
    for (const SyncSpec& sync : syncs) {
        if (sync.direction == SyncDirection::Forward ||
            sync.direction == SyncDirection::Both) {
            t = applyCollective(sync.kind, sync.axis, t);
        }
    }
    return t;
}

Tensor
applyBackwardSyncs(const std::vector<SyncSpec>& syncs, Tensor grad)
{
    for (const SyncSpec& sync : syncs) {
        if (sync.direction == SyncDirection::Backward ||
            sync.direction == SyncDirection::Both) {
            // The conjugate of a forward all-reduce boundary is an
            // all-reduce of the boundary's input gradient (Megatron f/g).
            grad = applyCollective(SyncKind::AllReduce, -1, grad);
        }
    }
    return grad;
}

std::vector<int64_t>
inversePerm(const std::vector<int64_t>& perm)
{
    std::vector<int64_t> inv(perm.size());
    for (size_t i = 0; i < perm.size(); ++i) {
        inv[perm[i]] = static_cast<int64_t>(i);
    }
    return inv;
}

/** Gradient rule for one primitive op. `x` are forward inputs, `y` the
 * forward output, `g` the upstream gradient. */
std::vector<Tensor>
opBackward(const Node& node, const std::vector<Tensor>& x, const Tensor& y,
           const Tensor& g)
{
    switch (node.op()) {
      case OpKind::Add:
        return {ops::reduceToShape(g, x[0].shape()),
                ops::reduceToShape(g, x[1].shape())};
      case OpKind::Sub:
        return {ops::reduceToShape(g, x[0].shape()),
                ops::scale(ops::reduceToShape(g, x[1].shape()), -1.0f)};
      case OpKind::Mul:
        return {ops::reduceToShape(ops::mul(g, x[1]), x[0].shape()),
                ops::reduceToShape(ops::mul(g, x[0]), x[1].shape())};
      case OpKind::Div: {
        Tensor ga = ops::reduceToShape(ops::div(g, x[1]), x[0].shape());
        Tensor gb = ops::reduceToShape(
            ops::scale(ops::mul(g, ops::div(x[0], ops::mul(x[1], x[1]))), -1.0f),
            x[1].shape());
        return {std::move(ga), std::move(gb)};
      }
      case OpKind::Scale:
        return {ops::scale(g, static_cast<float>(node.attrFloat("factor")))};
      case OpKind::AddScalar:
        return {g.clone()};
      case OpKind::Gelu:
        return {ops::geluBackward(g, x[0])};
      case OpKind::Relu:
        return {ops::reluBackward(g, x[0])};
      case OpKind::Tanh:
        return {ops::tanhBackward(g, y)};
      case OpKind::Clamp:
        return {ops::mul(g, ops::rangeMask(
                                x[0],
                                static_cast<float>(node.attrFloat("lo")),
                                static_cast<float>(node.attrFloat("hi"))))};
      case OpKind::RangeMask:
        return {Tensor::zeros(x[0].shape())};
      case OpKind::CausalMask:
        return {g.clone()};
      case OpKind::RelPosBias:
        return {g.clone(),
                ops::relPosBiasTableBackward(g, x[1].shape())};
      case OpKind::Softmax:
        return {ops::softmaxBackward(g, y)};
      case OpKind::LayerNormOp: {
        ops::LayerNormGrads lg = ops::layerNormBackward(
            g, x[0], x[1], static_cast<float>(node.attrFloat("eps")));
        return {std::move(lg.grad_x), std::move(lg.grad_gamma),
                std::move(lg.grad_beta)};
      }
      case OpKind::Dropout:
        return {ops::dropoutBackward(
            g, static_cast<float>(node.attrFloat("p")),
            static_cast<uint64_t>(node.attrInt("seed")))};
      case OpKind::Matmul: {
        Tensor ga = ops::reduceToShape(
            ops::matmul(g, ops::transposeLast2(x[1])), x[0].shape());
        Tensor gb = ops::reduceToShape(
            ops::matmul(ops::transposeLast2(x[0]), g), x[1].shape());
        return {std::move(ga), std::move(gb)};
      }
      case OpKind::LinearOp: {
        const bool has_bias = x.size() > 2;
        ops::LinearGrads lg = ops::linearBackward(g, x[0], x[1], has_bias);
        std::vector<Tensor> grads = {std::move(lg.grad_x),
                                     std::move(lg.grad_weight)};
        if (has_bias) {
            grads.push_back(std::move(lg.grad_bias));
        }
        return grads;
      }
      case OpKind::TransposeLast2:
        return {ops::transposeLast2(g)};
      case OpKind::Reshape:
        return {g.reshape(x[0].shape())};
      case OpKind::Permute:
        return {ops::permute(g, inversePerm(node.attrInts("perm")))};
      case OpKind::Concat: {
        const int64_t axis = node.attrInt("axis");
        std::vector<Tensor> grads;
        int64_t offset = 0;
        for (const Tensor& in : x) {
            grads.push_back(ops::narrow(g, axis, offset, in.size(axis)));
            offset += in.size(axis);
        }
        return grads;
      }
      case OpKind::Narrow:
        return {ops::narrowBackward(g, x[0].shape(), node.attrInt("axis"),
                                    node.attrInt("start"))};
      case OpKind::EmbeddingOp:
        return {Tensor::zeros(x[0].shape()),
                ops::embeddingBackward(g, x[0], x[1].size(0))};
      case OpKind::CrossEntropyOp:
        return {ops::scale(ops::crossEntropyBackward(x[0], x[1]), g.at(0)),
                Tensor::zeros(x[1].shape())};
      case OpKind::MseLossOp:
        return {ops::scale(ops::mseLossBackward(x[0], x[1]), g.at(0)),
                Tensor::zeros(x[1].shape())};
      case OpKind::Identity:
        return {g.clone()};
      case OpKind::AllReduce:
        // d(all_reduce)/dx is the identity per rank; the scheduler's
        // conjugate sync point covers the reduction of the other side.
        return {g.clone()};
      case OpKind::AllGather: {
        nn::DistContext* dc = nn::DistContext::current();
        const int64_t axis = node.attrInt("axis");
        const int64_t rank = dc ? dc->rank : 0;
        const int64_t ax =
            axis < 0 ? axis + static_cast<int64_t>(x[0].shape().size()) : axis;
        const int64_t len = x[0].size(ax);
        return {ops::narrow(g, ax, rank * len, len)};
      }
      case OpKind::ReduceScatter: {
        nn::DistContext* dc = nn::DistContext::current();
        if (dc == nullptr || dc->world_size == 1) {
            return {g.clone()};
        }
        SLAPO_CHECK(dc->group, "reduce_scatter backward needs a group");
        return {dc->group->allGather(dc->rank, g, node.attrInt("axis"))};
      }
      default:
        SLAPO_THROW("autograd: backward not implemented for op "
                    << opKindName(node.op())
                    << " (vision ops are forward/simulation only)");
    }
}

} // namespace

std::shared_ptr<Graph>
AutogradEngine::graphFor(Module& module, const std::vector<Shape>& shapes)
{
    if (module.meta().traced_graph) {
        return module.meta().traced_graph;
    }
    auto& by_shapes = graph_cache_[&module];
    auto it = by_shapes.find(shapes);
    if (it != by_shapes.end()) {
        return it->second;
    }
    auto g = traceModule(module, shapes);
    by_shapes.emplace(shapes, g);
    return g;
}

std::vector<Tensor>
AutogradEngine::forwardGraph(const Graph& g, Module* owner,
                             const std::vector<Tensor>& inputs, Frame* frame)
{
    SLAPO_ASSERT(frame != nullptr, "forwardGraph: null frame");
    frame->init(g.idBound());

    const auto placeholders = g.placeholders();
    SLAPO_CHECK(placeholders.size() == inputs.size(),
                "autograd: graph expects " << placeholders.size()
                                           << " inputs, got " << inputs.size());
    for (size_t i = 0; i < placeholders.size(); ++i) {
        frame->put(placeholders[i], {inputs[i]});
    }

    auto in_tensors = [&](const Node* n) {
        std::vector<Tensor> ts;
        for (const Node* in : n->inputs()) {
            ts.push_back(frame->at(in)[0]);
        }
        return ts;
    };

    std::vector<Tensor> outputs;
    for (Node* node : g.nodes()) {
        switch (node->kind()) {
          case NodeKind::Placeholder:
            break;
          case NodeKind::GetParam: {
            Module* m = node->module() ? node->module() : owner;
            frame->put(node, {m->paramTensor(node->target())});
            break;
          }
          case NodeKind::CallOp: {
            OpTimer timer(opKindName(node->op()), "",
                          node->provenance().primitive);
            obs::MemNodeScope mem_scope(node->id(),
                                        &node->provenance().primitive);
            std::vector<Value> ins;
            for (const Node* in : node->inputs()) {
                ins.emplace_back(frame->at(in)[0]);
            }
            Tensor out = nn::interpretOp(*node, ins).tensor();
            if (frame->counted && !node->checkpointed()) {
                result_.stored_activation_bytes += out.bytes();
            }
            frame->put(node, {std::move(out)});
            break;
          }
          case NodeKind::CallModule: {
            Module* child = node->module();
            SLAPO_ASSERT(child, "call_module without module binding");
            std::vector<Tensor> ins = in_tensors(node);
            std::vector<Shape> shapes;
            for (const Tensor& t : ins) shapes.push_back(t.shape());
            auto child_graph = graphFor(*child, shapes);

            const bool checkpointed =
                node->checkpointed() || child->meta().checkpointed;
            auto child_frame = std::make_unique<Frame>();
            child_frame->counted = frame->counted && !checkpointed;
            obs::ModuleScope scope(node->target());
            std::vector<Tensor> outs =
                forwardGraph(*child_graph, child, ins, child_frame.get());
            if (!outs.empty() && !child->meta().syncs.empty()) {
                // Collective boundaries inserted by .sync(): time them as
                // their own row so the step report can separate the cost
                // of aggregation from the sharded compute it follows.
                OpTimer sync_timer("sync", "", "sync");
                outs[0] = applyForwardSyncs(child->meta().syncs, outs[0]);
            }
            if (!checkpointed) {
                frame->children[node] = std::move(child_frame);
            }
            frame->put(node, std::move(outs));
            break;
          }
          case NodeKind::FusedOp: {
            std::vector<Tensor> ins = in_tensors(node);
            auto sub_frame = std::make_unique<Frame>();
            sub_frame->counted = frame->counted;
            std::vector<Tensor> outs =
                forwardGraph(*node->subgraph(), owner, ins, sub_frame.get());
            frame->children[node] = std::move(sub_frame);
            frame->put(node, std::move(outs));
            break;
          }
          case NodeKind::TupleGet: {
            frame->put(node,
                       {frame->at(node->inputs()[0])[node->attrInt("index")]});
            break;
          }
          case NodeKind::Output: {
            for (const Node* in : node->inputs()) {
                outputs.push_back(frame->at(in)[0]);
            }
            // .checkpoint(subgraph): evict the flagged activations now
            // that the forward is done; backward rematerializes them
            // lazily from their (retained) region inputs.
            for (Node* n : g.nodes()) {
                if (n->kind() == NodeKind::CallOp && n->checkpointed() &&
                    g.usersOf(n).size() > 0) {
                    frame->evict(n);
                }
            }
            return outputs;
          }
        }
    }
    SLAPO_THROW("autograd: graph has no output node");
}

std::vector<Tensor>
AutogradEngine::backwardGraph(const Graph& g, Module* owner, Frame& frame,
                              const std::vector<Tensor>& grad_outputs)
{
    // Dense per-node-id gradient slots, mirroring Frame's layout.
    std::vector<std::vector<Tensor>> gslots(g.idBound());
    std::vector<char> gdef(g.idBound(), 0);

    // Memory attribution: everything the reverse walk allocates is
    // gradient-flavoured (grad slots, backward-rule temporaries, even
    // checkpoint rematerialization — transient recompute, not stored
    // forward state), so activation bytes in the peak report reflect
    // only the *retained* forward tape (obs/mem_profiler.h).
    obs::MemCategoryScope mem_cat(obs::MemCategory::Gradient);

    auto accumulate = [&](const Node* node, size_t index, const Tensor& grad) {
        SLAPO_ASSERT(node->id() >= 0 &&
                         node->id() < static_cast<int64_t>(gslots.size()),
                     "backward: node id out of range for " << node->name());
        auto& slots = gslots[node->id()];
        gdef[node->id()] = 1;
        if (slots.size() <= index) {
            slots.resize(std::max(slots.size(), index + 1));
        }
        if (!slots[index].materialized()) {
            slots[index] = grad.clone();
        } else {
            slots[index].addInPlace(grad);
        }
    };

    // Lazy rematerialization of activations evicted by
    // .checkpoint(subgraph): recompute from retained region inputs.
    std::function<Tensor(const Node*)> value = [&](const Node* n) -> Tensor {
        if (frame.has(n)) {
            return frame.at(n)[0];
        }
        SLAPO_ASSERT(n->kind() == NodeKind::CallOp,
                     "missing non-op activation for " << n->name());
        std::vector<Value> ins;
        for (const Node* in : n->inputs()) {
            ins.emplace_back(value(in));
        }
        Tensor out = nn::interpretOp(*n, ins).tensor();
        frame.put(n, {out});
        ++result_.recomputed_nodes;
        return out;
    };

    auto nodes = g.nodes();
    // Seed: the output node's inputs receive the upstream gradients.
    const Node* out_node = g.outputNode();
    SLAPO_ASSERT(out_node, "backward: no output node");
    SLAPO_CHECK(out_node->inputs().size() == grad_outputs.size(),
                "backward: gradient count mismatch");
    for (size_t i = 0; i < grad_outputs.size(); ++i) {
        accumulate(out_node->inputs()[i], 0, grad_outputs[i]);
    }

    std::vector<Tensor> input_grads(g.placeholders().size());

    // Last-use release of tape intermediates: the reverse walk guarantees
    // every user of `node` has already run its backward by the time we
    // reach it, so after processing (or skipping) a node its stored
    // activation, child frame, and upstream-gradient slot are dead — drop
    // them so their storage returns to the allocator pool mid-backward
    // instead of at frame destruction. Purely a lifetime change: results
    // are bit-identical with the release on or off.
    const bool release_tape = graph::memPlanEnabled();
    auto release_node = [&](Node* node) {
        if (!release_tape) {
            return;
        }
        frame.evict(node);
        frame.children.erase(node);
        gslots[node->id()].clear();
        // Tape release points on the timeline: sample the tagged live
        // level so the memory-over-time track shows the backward walk
        // draining the forward tape.
        if (obs::tracingEnabled() && obs::memProfilingEnabled()) {
            obs::traceCounter("mem.live_bytes", obs::memLiveBytes());
        }
    };

    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
        Node* node = *it;
        if (node->kind() == NodeKind::Output) {
            continue;
        }
        if (!gdef[node->id()]) {
            release_node(node); // dead branch: its activation is dead too
            continue;
        }
        // Materialize missing output slots as zeros.
        auto& slots = gslots[node->id()];
        slots.resize(node->numOutputs());
        for (int64_t i = 0; i < node->numOutputs(); ++i) {
            if (!slots[i].materialized()) {
                slots[i] = Tensor::zeros(node->shape(i));
            }
        }

        switch (node->kind()) {
          case NodeKind::Placeholder: {
            const auto phs = g.placeholders();
            for (size_t i = 0; i < phs.size(); ++i) {
                if (phs[i] == node) {
                    input_grads[i] = slots[0];
                }
            }
            break;
          }
          case NodeKind::GetParam: {
            Module* m = node->module() ? node->module() : owner;
            accumulateParamGrad(m->paramTensor(node->target()), slots[0]);
            break;
          }
          case NodeKind::CallOp: {
            OpTimer timer(opKindName(node->op()), ".bwd",
                          node->provenance().primitive);
            obs::MemNodeScope mem_scope(node->id(),
                                        &node->provenance().primitive);
            std::vector<Tensor> x;
            for (const Node* in : node->inputs()) {
                x.push_back(value(in));
            }
            std::vector<Tensor> in_grads =
                opBackward(*node, x, value(node), slots[0]);
            SLAPO_ASSERT(in_grads.size() == node->inputs().size(),
                         "backward rule arity mismatch for "
                             << opKindName(node->op()));
            for (size_t i = 0; i < in_grads.size(); ++i) {
                accumulate(node->inputs()[i], 0, in_grads[i]);
            }
            break;
          }
          case NodeKind::CallModule: {
            Module* child = node->module();
            std::vector<Tensor> ins;
            std::vector<Shape> shapes;
            for (const Node* in : node->inputs()) {
                ins.push_back(value(in));
                shapes.push_back(ins.back().shape());
            }
            auto child_graph = graphFor(*child, shapes);

            Frame* child_frame = nullptr;
            std::unique_ptr<Frame> recomputed;
            auto fit = frame.children.find(node);
            if (fit != frame.children.end()) {
                child_frame = fit->second.get();
            } else {
                // Checkpointed: recompute internals from stored boundaries.
                recomputed = std::make_unique<Frame>();
                recomputed->counted = false;
                forwardGraph(*child_graph, child, ins, recomputed.get());
                result_.recomputed_nodes +=
                    static_cast<int64_t>(child_graph->size());
                child_frame = recomputed.get();
            }
            // Note: forward syncs with all-reduce have identity backward;
            // per-spec backward syncs fire on the input gradient below.
            obs::ModuleScope scope(node->target());
            std::vector<Tensor> child_in_grads =
                backwardGraph(*child_graph, child, *child_frame, slots);
            if (!child_in_grads.empty() && !child->meta().syncs.empty() &&
                child_in_grads[0].materialized()) {
                OpTimer sync_timer("sync", ".bwd", "sync");
                child_in_grads[0] =
                    applyBackwardSyncs(child->meta().syncs, child_in_grads[0]);
            }
            for (size_t i = 0; i < child_in_grads.size(); ++i) {
                if (child_in_grads[i].materialized()) {
                    accumulate(node->inputs()[i], 0, child_in_grads[i]);
                }
            }
            break;
          }
          case NodeKind::FusedOp: {
            Frame* sub = frame.children.at(node).get();
            std::vector<Tensor> in_grads =
                backwardGraph(*node->subgraph(), owner, *sub, slots);
            for (size_t i = 0; i < in_grads.size(); ++i) {
                if (in_grads[i].materialized()) {
                    accumulate(node->inputs()[i], 0, in_grads[i]);
                }
            }
            break;
          }
          case NodeKind::TupleGet: {
            accumulate(node->inputs()[0],
                       static_cast<size_t>(node->attrInt("index")), slots[0]);
            break;
          }
          case NodeKind::Output:
            break;
        }
        release_node(node);
    }

    // Inputs that never received a gradient (e.g. integer id tensors) get
    // explicit zeros so callers can index uniformly.
    const auto phs = g.placeholders();
    for (size_t i = 0; i < phs.size(); ++i) {
        if (!input_grads[i].materialized()) {
            input_grads[i] = Tensor::zeros(phs[i]->shape());
        }
    }
    return input_grads;
}

void
AutogradEngine::accumulateParamGrad(const Tensor& param, const Tensor& grad)
{
    const void* key = param.storageKey();
    SLAPO_ASSERT(key != nullptr, "gradient for meta parameter");
    auto it = result_.param_grads.find(key);
    if (it == result_.param_grads.end()) {
        obs::MemCategoryScope mem_cat(obs::MemCategory::Gradient);
        result_.param_grads.emplace(key, grad.clone());
    } else {
        it->second.addInPlace(grad);
    }
}

GradResult
AutogradEngine::run(Module& model, const std::vector<Tensor>& inputs)
{
    // The per-node timers below account for op execution; everything
    // else inside run() — tracing, tape construction, grad-map
    // bookkeeping — would otherwise vanish into the step report's
    // "other" bucket. Measure the remainder and report it explicitly
    // so attribution covers the engine's own cost too.
    obs::OpProfiler* prof = obs::OpProfiler::current();
    const int64_t recorded_before = obs::OpProfiler::threadRecordedNs();
    const auto run_start = std::chrono::steady_clock::now();

    result_ = GradResult{};
    std::vector<Shape> shapes;
    for (const Tensor& t : inputs) shapes.push_back(t.shape());
    std::shared_ptr<Graph> g;
    {
        // First call traces the module (expensive); later calls hit the
        // cache, so this span shows the one-time tracing cost distinctly.
        obs::TraceSpan trace_span("autograd.trace", "autograd");
        g = graphFor(model, shapes);
    }

    Frame frame;
    {
        obs::TraceSpan fwd_span("autograd.forward", "autograd");
        result_.outputs = forwardGraph(*g, &model, inputs, &frame);
    }
    SLAPO_CHECK(result_.outputs.size() == 1 &&
                    result_.outputs[0].numel() == 1,
                "autograd: model must produce a single scalar loss");
    {
        obs::TraceSpan bwd_span("autograd.backward", "autograd");
        result_.input_grads =
            backwardGraph(*g, &model, frame, {Tensor::full({1}, 1.0f)});
    }
    if (prof != nullptr) {
        const int64_t wall = std::chrono::duration_cast<
                                 std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - run_start)
                                 .count();
        const int64_t attributed =
            obs::OpProfiler::threadRecordedNs() - recorded_before;
        // Nested CallModule timers can double-count their inner ops, so
        // the remainder may come out negative; only a positive gap is a
        // real unattributed cost.
        if (wall > attributed) {
            prof->record("engine.overhead", "", "baseline",
                         wall - attributed);
        }
    }
    return result_;
}

Tensor
AutogradEngine::gradFor(const GradResult& result, const Tensor& param)
{
    auto it = result.param_grads.find(param.storageKey());
    if (it == result.param_grads.end()) {
        return Tensor::zeros(param.shape());
    }
    return it->second;
}

namespace {

/** Wraps a model with a loss head: inputs = model inputs + target. */
class LossWrapper : public Module
{
  public:
    enum class Loss { CrossEntropy, Mse };

    LossWrapper(nn::ModulePtr model, Loss loss)
        : Module(loss == Loss::CrossEntropy ? "CrossEntropyLoss" : "MseLoss"),
          loss_(loss)
    {
        registerChild("model", std::move(model));
    }

    std::vector<Value>
    forward(const std::vector<Value>& inputs) override
    {
        std::vector<Value> model_inputs(inputs.begin(), inputs.end() - 1);
        Value out = callChildOne("model", model_inputs);
        const Value& target = inputs.back();
        if (loss_ == Loss::CrossEntropy) {
            return {nn::F::crossEntropy(out, target)};
        }
        return {nn::F::mseLoss(out, target)};
    }

    nn::ModulePtr
    clone() const override
    {
        auto m = std::make_shared<LossWrapper>(child("model")->clone(), loss_);
        cloneInto(m.get());
        return m;
    }

  private:
    Loss loss_;
};

} // namespace

nn::ModulePtr
withCrossEntropyLoss(nn::ModulePtr model)
{
    return std::make_shared<LossWrapper>(std::move(model),
                                         LossWrapper::Loss::CrossEntropy);
}

nn::ModulePtr
withMseLoss(nn::ModulePtr model)
{
    return std::make_shared<LossWrapper>(std::move(model),
                                         LossWrapper::Loss::Mse);
}

} // namespace runtime
} // namespace slapo
