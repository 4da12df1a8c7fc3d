#include "runtime/autograd.h"

#include <algorithm>
#include <functional>

#include "graph/memplan.h"
#include "nn/functional.h"
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

namespace {

const std::string kSyncPrimitive = "sync";
const std::string kBaseline = "baseline";

/**
 * The backward half of a module's `.sync()` points: the conjugate of a
 * forward all-reduce boundary is an all-reduce of the boundary's input
 * gradient (Megatron f/g). Identity outside a multi-rank DistContext.
 */
Tensor
applyBackwardSyncs(const std::vector<SyncSpec>& syncs, Tensor grad)
{
    nn::DistContext* dc = nn::DistContext::current();
    if (dc == nullptr || dc->world_size == 1) {
        return grad;
    }
    SLAPO_CHECK(dc->group != nullptr, "sync requires a live ProcessGroup");
    for (const SyncSpec& sync : syncs) {
        if (sync.direction == SyncDirection::Backward ||
            sync.direction == SyncDirection::Both) {
            grad = dc->group->allReduce(dc->rank, grad);
        }
    }
    return grad;
}

/**
 * The gradient through a forward collective on this rank, given the
 * gradient `g` of its output: a gather's input gradient is this rank's
 * slice, a reduce-scatter's the gathered slices. An all-reduce passes
 * `g` through; the conjugate backward sync covers the other side.
 */
Tensor
collectiveBackward(OpKind kind, int64_t axis, const Tensor& g)
{
    nn::DistContext* dc = nn::DistContext::current();
    if (dc == nullptr || dc->world_size == 1 || kind == OpKind::AllReduce) {
        return g.clone();
    }
    if (kind == OpKind::AllGather) {
        const int64_t ax =
            axis < 0 ? axis + static_cast<int64_t>(g.shape().size()) : axis;
        const int64_t len = g.size(ax) / dc->world_size;
        return ops::narrow(g, ax, dc->rank * len, len);
    }
    SLAPO_CHECK(dc->group, "reduce_scatter backward needs a group");
    return dc->group->allGather(dc->rank, g, axis);
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
 * forward output, `g` the upstream gradient, which the walk hands over:
 * a rule that passes it through returns it without a copy. (A narrow's
 * gradient is added into its input's slot by the walk itself.) */
std::vector<Tensor>
opBackward(const Node& node, const std::vector<Tensor>& x, const Tensor& y,
           Tensor g)
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
        return {std::move(g)};
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
        return {std::move(g)};
      case OpKind::RelPosBias: {
        Tensor table_grad = ops::relPosBiasTableBackward(g, x[1].shape());
        return {std::move(g), std::move(table_grad)};
      }
      case OpKind::Softmax:
        return {ops::softmaxBackward(g, y)};
      case OpKind::Attention:
        return ops::attentionBackward(
            g, x,
            {node.attrInt("head_dim"), node.attrInt("causal") != 0,
             static_cast<float>(node.attrFloat("p")),
             static_cast<uint64_t>(node.attrInt("seed"))});
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
      case OpKind::EmbeddingOp:
        return {Tensor::zeros(x[0].shape()),
                ops::embeddingBackward(g, x[0], x[1].size(0))};
      case OpKind::CrossEntropyOp:
        return {ops::crossEntropyBackward(x[0], x[1], g.at(0)),
                Tensor::zeros(x[1].shape())};
      case OpKind::MseLossOp:
        return {ops::scale(ops::mseLossBackward(x[0], x[1]), g.at(0)),
                Tensor::zeros(x[1].shape())};
      case OpKind::Identity:
        return {std::move(g)};
      case OpKind::AllReduce:
      case OpKind::AllGather:
      case OpKind::ReduceScatter:
        return {collectiveBackward(node.op(), node.attrInt("axis"), g)};
      default:
        SLAPO_THROW("autograd: backward not implemented for op "
                    << opKindName(node.op())
                    << " (vision ops are forward/simulation only)");
    }
}

} // namespace

std::vector<Tensor>
AutogradEngine::backwardModule(Module& module, nn::Frame& frame,
                               const std::vector<Tensor>& grad_outputs)
{
    // Undo the module's forward gathers and scatters, last applied
    // first; a forward all-reduce's gradient passes through unchanged.
    const std::vector<SyncSpec>& syncs = module.meta().syncs;
    std::vector<Tensor> out_grads = grad_outputs;
    for (auto it = syncs.rbegin(); it != syncs.rend(); ++it) {
        if (it->direction != SyncDirection::Backward &&
            it->kind != SyncKind::AllReduce) {
            obs::OpScope scope("sync.bwd", kSyncPrimitive);
            out_grads[0] = collectiveBackward(
                it->kind == SyncKind::AllGather ? OpKind::AllGather
                                                : OpKind::ReduceScatter,
                it->axis, out_grads[0]);
        }
    }
    std::vector<Tensor> grads = backwardGraph(frame, out_grads);
    if (!grads.empty() && !syncs.empty() && grads[0].materialized()) {
        obs::OpScope scope("sync.bwd", kSyncPrimitive);
        grads[0] = applyBackwardSyncs(syncs, grads[0]);
    }
    return grads;
}

std::vector<Tensor>
AutogradEngine::backwardGraph(nn::Frame& frame,
                              const std::vector<Tensor>& grad_outputs)
{
    const Graph& g = *frame.graph;
    // Dense per-node-id gradient slots, mirroring Frame's layout: an
    // empty slot is a node no gradient reached.
    std::vector<std::vector<Tensor>> gslots(g.idBound());

    // Memory attribution: everything the reverse walk allocates is
    // gradient-flavoured (grad slots, backward-rule temporaries, even
    // checkpoint rematerialization — transient recompute, not stored
    // forward state), so activation bytes in the peak report reflect
    // only the *retained* forward tape (obs/mem_profiler.h).
    obs::MemCategoryScope mem_cat(obs::MemCategory::Gradient);

    auto slot_of = [&](const Node* node, size_t index) -> Tensor& {
        SLAPO_ASSERT(node->id() >= 0 &&
                         node->id() < static_cast<int64_t>(gslots.size()),
                     "backward: node id out of range for " << node->name());
        auto& slots = gslots[node->id()];
        if (slots.size() <= index) {
            slots.resize(index + 1);
        }
        return slots[index];
    };
    // Later gradients are added into a slot in place, so its first one is
    // adopted only when nothing else holds its storage (a backward rule's
    // fresh result, moved in); a view of another slot or a caller's
    // tensor is copied.
    auto accumulate = [&](const Node* node, size_t index, Tensor grad) {
        Tensor& slot = slot_of(node, index);
        if (slot.materialized()) {
            slot.addInPlace(grad);
        } else if (grad.storageUseCount() == 1) {
            slot = std::move(grad);
        } else {
            slot = grad.clone();
        }
    };

    // Lazy rematerialization of activations evicted by
    // .checkpoint(subgraph): recompute from retained region inputs.
    std::function<Tensor(const Node*)> value = [&](const Node* n) -> Tensor {
        if (frame.has(n)) {
            return frame.at(n)[0].tensor();
        }
        SLAPO_ASSERT(n->kind() == NodeKind::CallOp,
                     "missing non-op activation for " << n->name());
        std::vector<Value> ins;
        for (const Node* in : n->inputs()) {
            ins.emplace_back(value(in));
        }
        Value out = nn::interpretOp(*n, ins);
        frame.put(n, {out});
        ++result_.recomputed_nodes;
        return out.tensor();
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
    auto release_node = [&](Node* node, int observed) {
        if (!release_tape) {
            return;
        }
        frame.evict(node);
        frame.children.erase(node);
        gslots[node->id()].clear();
        // Tape release points on the timeline: sample the tagged live
        // level so the memory-over-time track shows the backward walk
        // draining the forward tape.
        if ((observed & obs::kObserveTrace) &&
            (observed & obs::kObserveMemory)) {
            obs::traceCounter("mem.live_bytes", obs::memLiveBytes());
        }
    };

    for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
        Node* node = *it;
        if (node->kind() == NodeKind::Output) {
            continue;
        }
        // The node's one enable check, shared by its scopes.
        const int observed = obs::observing();
        if (gslots[node->id()].empty()) {
            // Dead branch: its activation is dead too.
            release_node(node, observed);
            continue;
        }
        // Only a CallOp's rule reads its own output, and every user of
        // the node has run its backward: a module's output (the logits,
        // a layer's hidden states) is not held through its backward.
        if (release_tape && node->kind() != NodeKind::CallOp) {
            frame.evict(node);
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
            accumulateParamGrad(node->module()->paramTensor(node->target()),
                                std::move(slots[0]));
            break;
          }
          case NodeKind::CallOp: {
            obs::OpScope scope(opKindName(node->op()),
                               node->provenance().primitive,
                               {.suffix = ".bwd",
                                .node_id = node->id(),
                                .node = &node->name()},
                               observed);
            std::vector<Tensor> x;
            for (const Node* in : node->inputs()) {
                x.push_back(value(in));
            }
            if (node->op() == OpKind::Narrow) {
                // Narrows of one value (the QKV split, the vocab head's
                // padding) add into slices of one zero-filled gradient.
                Tensor& in_grad = slot_of(node->inputs()[0], 0);
                if (!in_grad.materialized()) {
                    in_grad = Tensor::zeros(x[0].shape());
                }
                ops::narrowBackwardInto(slots[0], in_grad,
                                        node->attrInt("axis"),
                                        node->attrInt("start"));
                break;
            }
            std::vector<Tensor> in_grads =
                opBackward(*node, x, value(node), std::move(slots[0]));
            SLAPO_ASSERT(in_grads.size() == node->inputs().size(),
                         "backward rule arity mismatch for "
                             << opKindName(node->op()));
            for (size_t i = 0; i < in_grads.size(); ++i) {
                accumulate(node->inputs()[i], 0, std::move(in_grads[i]));
            }
            break;
          }
          case NodeKind::CallModule: {
            Module* child = node->module();
            // The recompute's rows belong to the child as much as its
            // backward's do.
            obs::ModuleScope path(node->target(), observed);
            nn::Frame* child_frame = nullptr;
            std::unique_ptr<nn::Frame> recomputed;
            auto fit = frame.children.find(node);
            if (fit != frame.children.end()) {
                child_frame = fit->second.get();
            } else {
                // Checkpointed: recompute the child's forward from its
                // stored boundary inputs, outside its call boundary (its
                // forward syncs already ran).
                std::vector<Value> ins;
                for (const Node* in : node->inputs()) {
                    ins.emplace_back(value(in));
                }
                const Graph& child_graph = graphs_.graphFor(*child, ins);
                recomputed = std::make_unique<nn::Frame>(child_graph,
                                                         &graphs_, nullptr);
                nn::interpretGraph(child_graph, ins, recomputed.get());
                result_.recomputed_nodes +=
                    static_cast<int64_t>(child_graph.size());
                child_frame = recomputed.get();
            }
            std::vector<Tensor> child_in_grads =
                backwardModule(*child, *child_frame, slots);
            for (size_t i = 0; i < child_in_grads.size(); ++i) {
                if (child_in_grads[i].materialized()) {
                    accumulate(node->inputs()[i], 0,
                               std::move(child_in_grads[i]));
                }
            }
            break;
          }
          case NodeKind::FusedOp: {
            nn::Frame* sub = frame.children.at(node).get();
            std::vector<Tensor> in_grads = backwardGraph(*sub, slots);
            for (size_t i = 0; i < in_grads.size(); ++i) {
                if (in_grads[i].materialized()) {
                    accumulate(node->inputs()[i], 0, std::move(in_grads[i]));
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
        release_node(node, observed);
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
AutogradEngine::accumulateParamGrad(const Tensor& param, Tensor grad)
{
    const void* key = param.storageKey();
    SLAPO_ASSERT(key != nullptr, "gradient for meta parameter");
    auto it = result_.param_grads.find(key);
    if (it != result_.param_grads.end()) {
        it->second.addInPlace(grad);
    } else if (grad.storageUseCount() == 1) {
        result_.param_grads.emplace(key, std::move(grad));
    } else {
        obs::MemCategoryScope mem_cat(obs::MemCategory::Gradient);
        result_.param_grads.emplace(key, grad.clone());
    }
}

GradResult
AutogradEngine::run(Module& model, const std::vector<Tensor>& inputs)
{
    // The node scopes account for op execution; everything else inside
    // run() (tracing, tape construction, grad-map bookkeeping) would
    // otherwise vanish into the step report's "other" bucket, so the
    // engine reports that remainder as its own row.
    obs::OpScope overhead("engine.overhead", kBaseline, {.self_time = true});

    result_ = GradResult{};
    std::vector<Value> values;
    for (const Tensor& t : inputs) {
        values.emplace_back(t);
    }
    const Graph* g = nullptr;
    {
        // First call traces the module (expensive); later calls hit the
        // cache, so this span shows the one-time tracing cost distinctly.
        obs::TraceSpan trace_span("autograd.trace", "autograd");
        g = &graphs_.graphFor(model, values);
    }

    nn::Frame frame(*g, &graphs_, &result_.stored_activation_bytes);
    {
        obs::TraceSpan fwd_span("autograd.forward", "autograd");
        for (const Value& v : model.call(values, &frame)) {
            result_.outputs.push_back(v.tensor());
        }
    }
    SLAPO_CHECK(result_.outputs.size() == 1 &&
                    result_.outputs[0].numel() == 1,
                "autograd: model must produce a single scalar loss");
    {
        obs::TraceSpan bwd_span("autograd.backward", "autograd");
        result_.input_grads =
            backwardModule(model, frame, {Tensor::full({1}, 1.0f)});
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
