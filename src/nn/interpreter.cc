#include "nn/interpreter.h"

#include "graph/memplan.h"
#include "nn/context.h"
#include "nn/functional.h"
#include "nn/module.h"
#include "nn/tracer.h"
#include "obs/profiler.h"
#include "tensor/ops.h"

namespace slapo {
namespace nn {

namespace {

std::vector<Shape>
shapesOf(const std::vector<Value>& values)
{
    std::vector<Shape> shapes;
    shapes.reserve(values.size());
    for (const Value& v : values) {
        shapes.push_back(v.shape());
    }
    return shapes;
}

/**
 * Dispatch a planner-marked CallOp to its in-place kernel twin,
 * overwriting `t` (the dying, uniquely-owned first operand). `second`
 * is the already-guarded second operand for binary ops (null
 * otherwise). Returns false for ops without an in-place twin — the
 * caller falls back to the out-of-place path.
 */
bool
runOpInPlace(const graph::Node& node, Tensor& t, const Tensor* second)
{
    using graph::OpKind;
    switch (node.op()) {
      case OpKind::Add: ops::addInPlace(t, *second); return true;
      case OpKind::Sub: ops::subInPlace(t, *second); return true;
      case OpKind::Mul: ops::mulInPlace(t, *second); return true;
      case OpKind::Div: ops::divInPlace(t, *second); return true;
      case OpKind::Scale:
        ops::scaleInPlace(t, static_cast<float>(node.attrFloat("factor")));
        return true;
      case OpKind::AddScalar:
        ops::addScalarInPlace(t, static_cast<float>(node.attrFloat("value")));
        return true;
      case OpKind::Gelu: ops::geluInPlace(t); return true;
      case OpKind::Relu: ops::reluInPlace(t); return true;
      case OpKind::Tanh: ops::tanhInPlace(t); return true;
      case OpKind::Clamp:
        ops::clampScalarInPlace(t, static_cast<float>(node.attrFloat("lo")),
                                static_cast<float>(node.attrFloat("hi")));
        return true;
      case OpKind::RangeMask:
        ops::rangeMaskInPlace(t, static_cast<float>(node.attrFloat("lo")),
                              static_cast<float>(node.attrFloat("hi")));
        return true;
      case OpKind::CausalMask: ops::causalMaskInPlace(t); return true;
      case OpKind::Softmax: ops::softmaxInPlace(t); return true;
      default: return false;
    }
}

} // namespace

Value
interpretOp(const graph::Node& node, const std::vector<Value>& in)
{
    using graph::OpKind;
    switch (node.op()) {
      case OpKind::Add: return F::add(in[0], in[1]);
      case OpKind::Sub: return F::sub(in[0], in[1]);
      case OpKind::Mul: return F::mul(in[0], in[1]);
      case OpKind::Div: return F::div(in[0], in[1]);
      case OpKind::Scale: return F::scale(in[0], node.attrFloat("factor"));
      case OpKind::AddScalar:
        return F::addScalar(in[0], node.attrFloat("value"));
      case OpKind::Gelu: return F::gelu(in[0]);
      case OpKind::Relu: return F::relu(in[0]);
      case OpKind::Tanh: return F::tanh(in[0]);
      case OpKind::Clamp:
        return F::clampScalar(in[0], node.attrFloat("lo"),
                              node.attrFloat("hi"));
      case OpKind::RangeMask:
        return F::rangeMask(in[0], node.attrFloat("lo"), node.attrFloat("hi"));
      case OpKind::CausalMask: return F::causalMask(in[0]);
      case OpKind::RelPosBias: return F::relPosBias(in[0], in[1]);
      case OpKind::Softmax: return F::softmax(in[0]);
      case OpKind::Attention:
        return F::attention(in, node.attrInt("head_dim"),
                            node.attrInt("causal") != 0, node.attrFloat("p"),
                            node.attrInt("seed"));
      case OpKind::LayerNormOp:
        return F::layerNorm(in[0], in[1], in[2], node.attrFloat("eps"));
      case OpKind::Dropout:
        return F::dropout(in[0], node.attrFloat("p"), node.attrInt("seed"));
      case OpKind::Matmul: return F::matmul(in[0], in[1]);
      case OpKind::LinearOp:
        return F::linear(in[0], in[1], in.size() > 2 ? in[2] : Value());
      case OpKind::TransposeLast2: return F::transposeLast2(in[0]);
      case OpKind::Reshape: return F::reshape(in[0], node.attrInts("shape"));
      case OpKind::Permute: return F::permute(in[0], node.attrInts("perm"));
      case OpKind::Concat: return F::concat(in, node.attrInt("axis"));
      case OpKind::Narrow:
        return F::narrow(in[0], node.attrInt("axis"), node.attrInt("start"),
                         node.attrInt("length"));
      case OpKind::EmbeddingOp: return F::embedding(in[0], in[1]);
      case OpKind::CrossEntropyOp: return F::crossEntropy(in[0], in[1]);
      case OpKind::MseLossOp: return F::mseLoss(in[0], in[1]);
      case OpKind::Conv2dOp:
        return F::conv2d(in[0], in[1], node.attrInt("stride"),
                         node.attrInt("pad"));
      case OpKind::BatchNormOp:
        return F::batchNorm2d(in[0], in[1], in[2], node.attrFloat("eps"));
      case OpKind::GlobalAvgPoolOp: return F::globalAvgPool(in[0]);
      case OpKind::AllReduce: return F::allReduce(in[0]);
      case OpKind::AllGather: return F::allGather(in[0], node.attrInt("axis"));
      case OpKind::ReduceScatter:
        return F::reduceScatter(in[0], node.attrInt("axis"));
      case OpKind::Identity: return F::identity(in[0]);
    }
    SLAPO_THROW("interpretOp: unhandled op " << opKindName(node.op()));
}

const graph::Graph&
GraphCache::graphFor(Module& module, const std::vector<Value>& inputs)
{
    if (module.meta().traced_graph) {
        return *module.meta().traced_graph;
    }
    const std::vector<Shape> shapes = shapesOf(inputs);
    auto& by_shapes = graphs_[&module];
    auto it = by_shapes.find(shapes);
    if (it == by_shapes.end()) {
        it = by_shapes.emplace(shapes, traceModule(module, shapes)).first;
    }
    return *it->second;
}

Frame::Frame(const graph::Graph& g, GraphCache* graph_cache,
             int64_t* stored_activation_bytes)
    : graph(&g),
      graphs(graph_cache),
      stored_bytes(stored_activation_bytes),
      env(g.idBound())
{
}

bool
Frame::has(const graph::Node* n) const
{
    return n->id() >= 0 && n->id() < static_cast<int64_t>(env.size()) &&
           !env[n->id()].empty();
}

const std::vector<Value>&
Frame::at(const graph::Node* n) const
{
    SLAPO_ASSERT(has(n), "interpret: undefined node " << n->name());
    return env[n->id()];
}

void
Frame::put(const graph::Node* n, std::vector<Value> values)
{
    SLAPO_ASSERT(n->id() >= 0 && n->id() < static_cast<int64_t>(env.size()),
                 "interpret: node id out of range for " << n->name());
    env[n->id()] = std::move(values);
}

void
Frame::evict(const graph::Node* n)
{
    if (has(n)) {
        env[n->id()].clear();
    }
}

std::vector<Value>
interpretGraph(const graph::Graph& graph, const std::vector<Value>& inputs,
               Frame* frame)
{
    SLAPO_CHECK(TracingState::current() == nullptr,
                "cannot interpret a traced graph while tracing; re-trace the "
                "module instead of nesting");
    SLAPO_ASSERT(frame == nullptr || frame->graph == &graph,
                 "interpret: frame was built for another graph");
    // An eval run keeps its values in a frame of its own.
    std::optional<Frame> own;
    if (frame == nullptr) {
        own.emplace(graph);
    }
    Frame& env = frame != nullptr ? *frame : *own;
    const bool recording = env.recording();

    const auto placeholders = graph.placeholders();
    SLAPO_CHECK(placeholders.size() == inputs.size(),
                "graph expects " << placeholders.size() << " inputs, got "
                                 << inputs.size());
    for (size_t i = 0; i < placeholders.size(); ++i) {
        env.put(placeholders[i], {inputs[i]});
    }

    auto first = [&](const graph::Node* n) -> const Value& {
        return env.at(n)[0];
    };

    // Memory plan: per-node env releases at last use plus in-place
    // rewrites (graph/memplan.h). Cached in the graph, keyed by the
    // runtime input shapes. A recording run keeps every value instead.
    std::shared_ptr<const graph::MemPlan> plan;
    if (!recording && graph::memPlanEnabled()) {
        plan = graph::memPlanFor(graph, shapesOf(inputs));
        if (plan != nullptr && obs::tracingEnabled()) {
            obs::TraceSpan span("memplan.plan", "mem");
            span.arg("release_points", plan->release_count);
            span.arg("inplace_nodes", plan->inplace_count);
        }
    }

    CostRecorder* prof = CostRecorder::current();

    for (graph::Node* node : graph.nodes()) {
        const graph::MemPlan::NodeActions* act =
            plan != nullptr ? plan->at(node->id()) : nullptr;
        // The node's one enable check, shared by its scopes.
        const int observed = obs::observing();
        switch (node->kind()) {
          case graph::NodeKind::Placeholder:
            break;
          case graph::NodeKind::GetParam: {
            SLAPO_ASSERT(node->module() != nullptr,
                         "get_param without module binding");
            env.put(node,
                    {Value(node->module()->paramTensor(node->target()))});
            break;
          }
          case graph::NodeKind::CallOp: {
            obs::OpScope scope(
                opKindName(node->op()), node->provenance().primitive,
                {.node_id = node->id(), .node = &node->name()}, observed);
            // A .checkpoint(subgraph) node: flag its kernel record (the
            // memory model drops it from activations) and account the
            // region boundary once, at entry nodes.
            const bool ckpt_scope = node->checkpointed() && prof != nullptr;
            if (ckpt_scope) {
                bool region_entry = true;
                double boundary_elems = 0;
                for (graph::Node* in : node->inputs()) {
                    region_entry &= !in->checkpointed();
                    boundary_elems +=
                        static_cast<double>(numelOf(in->shape()));
                }
                if (region_entry) {
                    prof->recordCheckpointBoundary(boundary_elems);
                }
                prof->beginModule("ckpt_subgraph", /*checkpointed=*/true);
            }

            // Planner in-place rewrite: input 0 dies here, so move it
            // out of the env — if no aliases remain (no reshape views,
            // caller handles, or parameters share the storage), the
            // kernel may overwrite its buffer. Any failed guard falls
            // back to the ordinary out-of-place execution using the
            // moved handle, so results are identical either way.
            bool executed = false;
            if (act != nullptr && act->inplace) {
                graph::Node* src = node->inputs()[0];
                SLAPO_ASSERT(env.has(src),
                             "interpret: undefined node " << src->name());
                Value moved = std::move(env.env[src->id()][0]);
                env.evict(src);

                Tensor& t = moved.tensor();
                const Tensor* second = nullptr;
                bool ok = t.materialized() && t.shape() == node->shape() &&
                          t.storageUseCount() == 1;
                if (ok && node->inputs().size() > 1) {
                    const Tensor& b = first(node->inputs()[1]).tensor();
                    ok = b.materialized() && b.shape() == t.shape();
                    second = &b;
                }
                if (ok && runOpInPlace(*node, t, second)) {
                    env.put(node, {std::move(moved)});
                    executed = true;
                } else {
                    std::vector<Value> ins;
                    ins.reserve(node->inputs().size());
                    ins.push_back(std::move(moved));
                    for (size_t i = 1; i < node->inputs().size(); ++i) {
                        ins.push_back(first(node->inputs()[i]));
                    }
                    env.put(node, {interpretOp(*node, ins)});
                    executed = true;
                }
            }
            if (!executed) {
                std::vector<Value> ins;
                ins.reserve(node->inputs().size());
                for (graph::Node* in : node->inputs()) {
                    ins.push_back(first(in));
                }
                Value out = interpretOp(*node, ins);
                // Unique storage: a view or alias of a value already held
                // (a reshape, a p = 0 dropout) shares its buffer.
                if (env.stored_bytes != nullptr && !node->checkpointed() &&
                    out.tensor().storageUseCount() == 1) {
                    *env.stored_bytes += out.tensor().bytes();
                }
                env.put(node, {std::move(out)});
            }
            if (ckpt_scope) {
                prof->endModule();
            }
            break;
          }
          case graph::NodeKind::CallModule: {
            Module* target = node->module();
            SLAPO_ASSERT(target != nullptr, "call_module without module");
            std::vector<Value> ins;
            for (graph::Node* in : node->inputs()) {
                ins.push_back(first(in));
            }
            // Recording: the child runs its cached graph into a frame of
            // its own, which a checkpointed child does not keep.
            std::unique_ptr<Frame> child;
            const bool checkpointed =
                node->checkpointed() || target->meta().checkpointed;
            if (recording) {
                child = std::make_unique<Frame>(
                    env.graphs->graphFor(*target, ins), env.graphs,
                    checkpointed ? nullptr : env.stored_bytes);
            }
            if (prof) prof->beginModule(node->target(), false);
            {
                // Attribute everything the submodule runs to its dotted
                // path; a leaf module with no graph executes eagerly
                // with no inner CallOp nodes, so time it as one record.
                obs::ModuleScope path(node->target(), observed);
                const bool eager_leaf = child == nullptr &&
                                        target->meta().traced_graph == nullptr;
                obs::OpScope scope(
                    target->typeName().c_str(), node->provenance().primitive,
                    {.node_id = node->id(), .node = &node->name()},
                    eager_leaf ? observed : 0);
                env.put(node, target->call(ins, child.get()));
            }
            if (prof) prof->endModule();
            if (child != nullptr && !checkpointed) {
                env.children[node] = std::move(child);
            }
            break;
          }
          case graph::NodeKind::FusedOp: {
            obs::OpScope scope(
                node->name().c_str(), node->provenance().primitive,
                {.node_id = node->id(), .node = &node->name()}, observed);
            std::vector<Value> ins;
            for (graph::Node* in : node->inputs()) {
                ins.push_back(first(in));
            }
            std::unique_ptr<Frame> sub;
            if (recording) {
                sub = std::make_unique<Frame>(*node->subgraph(), env.graphs,
                                              env.stored_bytes);
            }
            // A fused kernel is one launch: collapse its inner ops into a
            // single profiler record, then run the encapsulated subgraph.
            if (prof) {
                prof->beginKernelScope(node->name(), /*recompute_free=*/true);
            }
            std::vector<Value> outs =
                interpretGraph(*node->subgraph(), ins, sub.get());
            if (prof) prof->endKernelScope();
            if (sub != nullptr) {
                env.children[node] = std::move(sub);
            }
            env.put(node, std::move(outs));
            break;
          }
          case graph::NodeKind::TupleGet: {
            const auto& producer = env.at(node->inputs()[0]);
            const int64_t index = node->attrInt("index");
            SLAPO_ASSERT(index >= 0 &&
                             index < static_cast<int64_t>(producer.size()),
                         "tuple_get index out of range");
            env.put(node, {producer[index]});
            break;
          }
          case graph::NodeKind::Output: {
            std::vector<Value> outs;
            for (graph::Node* in : node->inputs()) {
                outs.push_back(first(in));
            }
            if (recording) {
                // .checkpoint(subgraph): evict the flagged activations
                // now that the forward is done; backward rematerializes
                // them lazily from their (retained) region inputs.
                for (graph::Node* n : graph.nodes()) {
                    if (n->kind() == graph::NodeKind::CallOp &&
                        n->checkpointed() && !graph.usersOf(n).empty()) {
                        env.evict(n);
                    }
                }
            }
            return outs;
          }
        }
        // Drop env entries whose producing node saw its last use here, so
        // the storage returns to the allocator pool mid-graph instead of
        // at function exit. With tracing on, each release point becomes a
        // timeline event so a memory-over-time view shows *where* in the
        // graph the planner returns storage.
        if (act != nullptr && !act->release_after.empty()) {
            if (observed & obs::kObserveTrace) {
                int64_t bytes = 0;
                for (int64_t id : act->release_after) {
                    for (const Value& v : env.env[id]) {
                        if (v.tensor().materialized()) {
                            bytes += v.tensor().bytes();
                        }
                    }
                }
                obs::TraceSpan span("memplan.release", "mem");
                span.arg("after_node", node->name());
                span.arg("values",
                         static_cast<int64_t>(act->release_after.size()));
                span.arg("bytes", bytes);
            }
            for (int64_t id : act->release_after) {
                env.env[id].clear();
            }
            if ((observed & obs::kObserveTrace) &&
                (observed & obs::kObserveMemory)) {
                obs::traceCounter("mem.live_bytes", obs::memLiveBytes());
            }
        }
    }
    SLAPO_THROW("interpretGraph: graph has no output node");
}

} // namespace nn
} // namespace slapo
