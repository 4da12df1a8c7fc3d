/** @file Tests of the module system, tracer, interpreter, and profiler. */
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "nn/interpreter.h"
#include "nn/layers.h"
#include "nn/tracer.h"

namespace slapo {
namespace nn {
namespace {

std::vector<Tensor>
runEager(Module& m, const std::vector<Tensor>& inputs)
{
    std::vector<Value> values;
    for (const Tensor& t : inputs) values.emplace_back(t);
    std::vector<Tensor> out;
    for (Value& v : m.call(values)) out.push_back(v.tensor());
    return out;
}

TEST(Module, ParamRegistrationAndLookup)
{
    Linear lin(4, 8);
    EXPECT_TRUE(lin.hasParam("weight"));
    EXPECT_TRUE(lin.hasParam("bias"));
    EXPECT_EQ(lin.paramTensor("weight").shape(), (Shape{8, 4}));
    EXPECT_THROW(lin.paramTensor("nope"), SlapoError);
    EXPECT_EQ(lin.numParams(), 8 * 4 + 8);
}

TEST(Module, MetaParamsUntilInitialized)
{
    Linear lin(4, 4);
    EXPECT_TRUE(lin.paramTensor("weight").isMeta());
    lin.initializeParams(1);
    EXPECT_TRUE(lin.paramTensor("weight").materialized());
}

TEST(Module, LayerNormGammaInitializedToOne)
{
    LayerNorm ln(8);
    ln.initializeParams(3);
    EXPECT_FLOAT_EQ(ln.paramTensor("gamma").at(0), 1.0f);
    EXPECT_FLOAT_EQ(ln.paramTensor("gamma").at(7), 1.0f);
}

TEST(Module, FindByPathNavigatesHierarchy)
{
    SelfAttention attn(8, 2, 0.0, false);
    EXPECT_EQ(attn.findByPath("query")->typeName(), "Linear");
    EXPECT_EQ(attn.findByPath("core")->typeName(), "CoreAttention");
    EXPECT_THROW(attn.findByPath("bogus"), SlapoError);
}

TEST(Module, NamedModulesPreOrder)
{
    FFN ffn(8, 16, 0.0);
    auto mods = ffn.namedModules();
    ASSERT_GE(mods.size(), 5u);
    EXPECT_EQ(mods[0].first, "");
    EXPECT_EQ(mods[1].first, "fc1");
}

TEST(Module, CloneIsDeepAndIndependent)
{
    Linear lin(3, 3);
    lin.initializeParams(5);
    ModulePtr copy = lin.clone();
    copy->paramTensor("weight").fill_(0.0f);
    EXPECT_NE(lin.paramTensor("weight").at(0), 0.0f);
}

TEST(Module, MetaForwardPropagatesShapes)
{
    Linear lin(4, 8); // params stay meta
    std::vector<Value> out = lin.call({Value(Tensor::meta({2, 4}))});
    EXPECT_EQ(out[0].shape(), (Shape{2, 8}));
    EXPECT_TRUE(out[0].tensor().isMeta());
}

TEST(Layers, LinearForwardNumeric)
{
    Linear lin(2, 2, /*bias=*/true);
    lin.setParamTensor("weight", Tensor::fromValues({2, 2}, {1, 0, 0, 1}));
    lin.setParamTensor("bias", Tensor::fromValues({2}, {1, 1}));
    auto out = runEager(lin, {Tensor::fromValues({1, 2}, {3, 4})});
    EXPECT_FLOAT_EQ(out[0].at(0), 4);
    EXPECT_FLOAT_EQ(out[0].at(1), 5);
}

TEST(Layers, SequentialChains)
{
    auto seq = std::make_shared<Sequential>();
    seq->append(std::make_shared<Linear>(4, 8));
    seq->append(std::make_shared<Activation>(Activation::Kind::Relu));
    seq->append(std::make_shared<Linear>(8, 2));
    seq->initializeParams(7);
    auto out = runEager(*seq, {Tensor::uniform({3, 4}, 1.0f, 9)});
    EXPECT_EQ(out[0].shape(), (Shape{3, 2}));
}

TEST(Layers, SelfAttentionShapes)
{
    SelfAttention attn(8, 2, 0.0, false);
    attn.initializeParams(11);
    auto out = runEager(attn, {Tensor::uniform({2, 5, 8}, 0.5f, 13)});
    EXPECT_EQ(out[0].shape(), (Shape{2, 5, 8}));
}

TEST(Layers, CausalAttentionIgnoresFuture)
{
    // With causal masking, output at position 0 must not change when
    // later positions change.
    SelfAttention attn(4, 1, 0.0, /*causal=*/true);
    attn.initializeParams(17);
    Tensor x1 = Tensor::uniform({1, 3, 4}, 0.5f, 19);
    Tensor x2 = x1.clone();
    x2.set(2 * 4 + 1, 9.0f); // perturb position 2
    auto o1 = runEager(attn, {x1});
    auto o2 = runEager(attn, {x2});
    for (int64_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(o1[0].at(i), o2[0].at(i), 1e-5f);
    }
}

TEST(Layers, FusedSelfAttentionMatchesUnfused)
{
    SelfAttention attn(8, 2, 0.0, false);
    attn.initializeParams(23);
    ModulePtr fused = FusedSelfAttention::fromSelfAttention(attn);
    Tensor x = Tensor::uniform({2, 4, 8}, 0.5f, 29);
    auto expected = runEager(attn, {x});
    auto actual = runEager(*fused, {x});
    EXPECT_TRUE(Tensor::allClose(expected[0], actual[0], 1e-4f));
}

TEST(Layers, EfficientAttentionMatchesCore)
{
    CoreAttention core(4, 0.0, false);
    ModulePtr eff = EfficientAttention::fromCore(core);
    Tensor q = Tensor::uniform({1, 3, 8}, 0.5f, 31);
    Tensor k = Tensor::uniform({1, 3, 8}, 0.5f, 32);
    Tensor v = Tensor::uniform({1, 3, 8}, 0.5f, 33);
    auto expected = runEager(core, {q, k, v});
    auto actual = runEager(*eff, {q, k, v});
    EXPECT_TRUE(Tensor::allClose(expected[0], actual[0], 1e-5f));
}

TEST(Layers, ProjectionAddsResidualAndNormalizes)
{
    Projection proj(4, 0.0);
    proj.initializeParams(37);
    Tensor ctx = Tensor::uniform({1, 2, 4}, 0.5f, 38);
    Tensor res = Tensor::uniform({1, 2, 4}, 0.5f, 39);
    auto out = runEager(proj, {ctx, res});
    EXPECT_EQ(out[0].shape(), (Shape{1, 2, 4}));
}

TEST(Layers, DropoutSeedSurvivesClone)
{
    Dropout d(0.5);
    auto c = std::static_pointer_cast<Dropout>(d.clone());
    EXPECT_EQ(d.seed(), c->seed());
}

// --- tracing -----------------------------------------------------------------

TEST(Tracer, DefaultTraceKeepsChildrenOpaque)
{
    FFN ffn(4, 8, 0.1);
    auto g = traceModule(ffn, {{2, 3, 4}});
    int call_modules = 0;
    int call_ops = 0;
    for (auto* n : g->nodes()) {
        if (n->kind() == graph::NodeKind::CallModule) ++call_modules;
        if (n->kind() == graph::NodeKind::CallOp) ++call_ops;
    }
    // fc1, act, fc2, dropout, norm stay opaque; only the residual add is
    // captured as an op.
    EXPECT_EQ(call_modules, 5);
    EXPECT_EQ(call_ops, 1);
    EXPECT_EQ(g->outputNode()->shape(), (Shape{2, 3, 4}));
}

TEST(Tracer, FlattenInlinesToOps)
{
    FFN ffn(4, 8, 0.1);
    TraceOptions options;
    options.flatten = true;
    auto g = traceModule(ffn, {{2, 3, 4}}, options);
    // Linear / LayerNorm remain framework leaves; GELU and Dropout inline.
    int gelu = 0;
    int dropout = 0;
    int linear_mods = 0;
    for (auto* n : g->nodes()) {
        if (n->kind() == graph::NodeKind::CallOp) {
            if (n->op() == graph::OpKind::Gelu) ++gelu;
            if (n->op() == graph::OpKind::Dropout) ++dropout;
        }
        if (n->kind() == graph::NodeKind::CallModule &&
            n->attrStr("type") == "Linear") {
            ++linear_mods;
        }
    }
    EXPECT_EQ(gelu, 1);
    EXPECT_EQ(dropout, 1);
    EXPECT_EQ(linear_mods, 2);
}

TEST(Tracer, DecomposedLinearSplitsBias)
{
    FFN ffn(4, 8, 0.0);
    ffn.child("fc1")->meta().decomposed = true;
    TraceOptions options;
    options.flatten = true;
    auto g = traceModule(ffn, {{1, 2, 4}}, options);
    // The decomposed fc1 contributes a bias-less linear op + an add op.
    bool saw_linear_op = false;
    for (auto* n : g->nodes()) {
        if (n->kind() == graph::NodeKind::CallOp &&
            n->op() == graph::OpKind::LinearOp) {
            saw_linear_op = true;
            EXPECT_EQ(n->inputs().size(), 2u); // no bias input
        }
    }
    EXPECT_TRUE(saw_linear_op);
}

TEST(Tracer, UntraceableModuleRaises)
{
    FFN ffn(4, 8, 0.0);
    ffn.setTraceable(false);
    EXPECT_THROW(traceModule(ffn, {{1, 2, 4}}), SlapoError);
}

TEST(Tracer, UntraceableChildOkWhenLeaf)
{
    // "Trace by need": an untraceable child is fine as long as it stays a
    // CallModule leaf (default, non-flattened trace).
    auto seq = std::make_shared<Sequential>();
    auto ffn = std::make_shared<FFN>(4, 8, 0.0);
    ffn->setTraceable(false);
    seq->append(ffn);
    auto g = traceModule(*seq, {{1, 2, 4}});
    EXPECT_EQ(g->placeholders().size(), 1u);
    // Flatten now *does* need the child's forward: must throw.
    TraceOptions options;
    options.flatten = true;
    EXPECT_THROW(traceModule(*seq, {{1, 2, 4}}, options), SlapoError);
}

TEST(Tracer, LeafPathsExcludeFromFlatten)
{
    FFN ffn(4, 8, 0.1);
    TraceOptions options;
    options.flatten = true;
    options.leaf_paths = {"dropout"};
    auto g = traceModule(ffn, {{1, 2, 4}}, options);
    bool dropout_module = false;
    for (auto* n : g->nodes()) {
        if (n->kind() == graph::NodeKind::CallModule &&
            n->attrStr("type") == "Dropout") {
            dropout_module = true;
        }
    }
    EXPECT_TRUE(dropout_module);
}

TEST(Interpreter, TracedGraphMatchesEagerForward)
{
    FFN ffn(6, 12, 0.0);
    ffn.initializeParams(43);
    Tensor x = Tensor::uniform({2, 3, 6}, 0.5f, 47);
    auto expected = runEager(ffn, {x});

    ffn.meta().traced_graph = traceModule(ffn, {{2, 3, 6}});
    auto actual = runEager(ffn, {x}); // now replays the graph
    EXPECT_TRUE(Tensor::allClose(expected[0], actual[0], 1e-5f));
}

TEST(Interpreter, FlattenedGraphMatchesEagerForward)
{
    SelfAttention attn(8, 2, 0.0, true);
    attn.initializeParams(53);
    Tensor x = Tensor::uniform({1, 4, 8}, 0.5f, 59);
    auto expected = runEager(attn, {x});
    TraceOptions options;
    options.flatten = true;
    attn.meta().traced_graph = traceModule(attn, {{1, 4, 8}}, options);
    auto actual = runEager(attn, {x});
    EXPECT_TRUE(Tensor::allClose(expected[0], actual[0], 1e-5f));
}

// --- multi-output modules / TupleGet ------------------------------------------

namespace {

/** Splits its input into two halves along the last axis. */
class Splitter : public Module
{
  public:
    Splitter() : Module("Splitter") {}

    std::vector<Value>
    forward(const std::vector<Value>& inputs) override
    {
        const int64_t half = inputs[0].shape().back() / 2;
        return {F::narrow(inputs[0], -1, 0, half),
                F::narrow(inputs[0], -1, half, half)};
    }

    ModulePtr
    clone() const override
    {
        auto m = std::make_shared<Splitter>();
        cloneInto(m.get());
        return m;
    }
};

/** Uses a multi-output child: out = gelu(a) + b. */
class SplitUser : public Module
{
  public:
    SplitUser() : Module("SplitUser")
    {
        registerChild("split", std::make_shared<Splitter>());
    }

    std::vector<Value>
    forward(const std::vector<Value>& inputs) override
    {
        std::vector<Value> halves = callChild("split", {inputs[0]});
        return {F::add(F::gelu(halves[0]), halves[1])};
    }

    ModulePtr
    clone() const override
    {
        auto m = std::make_shared<SplitUser>();
        cloneInto(m.get());
        return m;
    }
};

} // namespace

TEST(Tracer, MultiOutputChildGetsTupleGetNodes)
{
    SplitUser model;
    auto g = traceModule(model, {{2, 8}});
    int tuple_gets = 0;
    for (auto* n : g->nodes()) {
        if (n->kind() == graph::NodeKind::TupleGet) ++tuple_gets;
        if (n->kind() == graph::NodeKind::CallModule) {
            EXPECT_EQ(n->numOutputs(), 2);
        }
    }
    EXPECT_EQ(tuple_gets, 2);
}

TEST(Interpreter, TupleGetRoutesCorrectHalves)
{
    SplitUser model;
    model.meta().traced_graph = traceModule(model, {{2, 8}});
    Tensor x = Tensor::uniform({2, 8}, 1.0f, 91);
    Tensor via_graph = model.callOne({Value(x)}).tensor();
    // Reference without the graph.
    SplitUser fresh;
    Tensor direct = fresh.callOne({Value(x)}).tensor();
    EXPECT_TRUE(Tensor::allClose(via_graph, direct, 1e-6f));
}

// --- context guards --------------------------------------------------------------

TEST(Context, GuardsRestorePreviousState)
{
    EXPECT_EQ(TracingState::current(), nullptr);
    graph::Graph g1, g2;
    TracingState outer(&g1, {});
    {
        TracingGuard guard_outer(&outer);
        EXPECT_EQ(TracingState::current(), &outer);
        TracingState inner(&g2, {});
        {
            TracingGuard guard_inner(&inner);
            EXPECT_EQ(TracingState::current(), &inner);
            {
                TracingGuard suspend(nullptr); // meta-propagation trick
                EXPECT_EQ(TracingState::current(), nullptr);
            }
            EXPECT_EQ(TracingState::current(), &inner);
        }
        EXPECT_EQ(TracingState::current(), &outer);
    }
    EXPECT_EQ(TracingState::current(), nullptr);
}

TEST(Context, DistContextIsPerThread)
{
    DistContext dc;
    dc.rank = 3;
    dc.world_size = 4;
    DistGuard guard(&dc);
    EXPECT_EQ(DistContext::current()->rank, 3);
    std::thread other([] { EXPECT_EQ(DistContext::current(), nullptr); });
    other.join();
}

TEST(Context, TracingPathTracksModuleStack)
{
    graph::Graph g;
    TracingState state(&g, {});
    EXPECT_EQ(state.currentPath(), "");
    state.pushModule("encoder");
    state.pushModule("layer");
    EXPECT_EQ(state.currentPath(), "encoder.layer");
    state.popModule();
    EXPECT_EQ(state.currentPath(), "encoder");
}

// --- profiler ------------------------------------------------------------------

TEST(Profiler, CountsKernelsAndFlops)
{
    Linear lin(4, 8);
    CostRecorder profiler(2.0);
    {
        CostRecorderGuard guard(&profiler);
        runEager(lin, {Tensor::meta({2, 4})});
    }
    const Profile& p = profiler.profile();
    ASSERT_EQ(p.kernels.size(), 1u);
    EXPECT_DOUBLE_EQ(p.kernels[0].flops, 2.0 * 2 * 4 * 8 + 2 * 8);
    EXPECT_DOUBLE_EQ(p.kernels[0].bytes_out, 2 * 8 * 2.0);
}

TEST(Profiler, EfficientKernelCollapsesToOneLaunch)
{
    CoreAttention core(4, 0.0, false);
    auto eff = EfficientAttention::fromCore(core);
    Tensor q = Tensor::meta({1, 8, 8});

    CostRecorder p_core(2.0);
    {
        CostRecorderGuard guard(&p_core);
        core.call({Value(q), Value(q), Value(q)});
    }
    CostRecorder p_eff(2.0);
    {
        CostRecorderGuard guard(&p_eff);
        eff->call({Value(q), Value(q), Value(q)});
    }
    EXPECT_GT(p_core.profile().kernels.size(), 3u);
    EXPECT_EQ(p_eff.profile().kernels.size(), 1u);
    // Same math: FLOPs agree.
    EXPECT_NEAR(p_core.profile().totalFlops(), p_eff.profile().totalFlops(),
                1.0);
    // Flash attention's activation footprint excludes the S x S tensors.
    EXPECT_LT(p_eff.profile().totalActivationBytes(),
              p_core.profile().totalActivationBytes());
}

TEST(Profiler, CheckpointScopeMarksKernels)
{
    FFN ffn(4, 8, 0.0);
    ffn.meta().checkpointed = true;
    CostRecorder profiler(2.0);
    {
        CostRecorderGuard guard(&profiler);
        ffn.call({Value(Tensor::meta({1, 2, 4}))});
    }
    for (const auto& k : profiler.profile().kernels) {
        EXPECT_TRUE(k.checkpointed);
    }
}

TEST(Profiler, ShardedModuleRecordsComm)
{
    Linear lin(8, 8);
    ShardSpec spec;
    spec.axis = 1;
    spec.world_size = 2;
    lin.meta().sharded_params["weight"] = spec;
    // Rank-local view: the executor narrows the weight to (8, 4).
    lin.setParamTensor("weight", Tensor::meta({8, 4}));
    SyncSpec sync;
    sync.direction = SyncDirection::Both;
    lin.meta().syncs.push_back(sync);

    DistContext dc;
    dc.rank = 0;
    dc.world_size = 2;
    CostRecorder profiler(2.0);
    {
        DistGuard dist(&dc);
        CostRecorderGuard guard(&profiler);
        lin.call({Value(Tensor::meta({2, 4}))}); // sharded input features
    }
    const Profile& p = profiler.profile();
    ASSERT_EQ(p.comms.size(), 2u); // forward + backward all-reduce
    EXPECT_EQ(p.comms[0].kind, "all_reduce");
    EXPECT_FALSE(p.comms[0].backward);
    EXPECT_TRUE(p.comms[1].backward);
}

} // namespace
} // namespace nn
} // namespace slapo
