/** @file Tests of the schedule language: primitives, validation rules,
 * pipeline partitioning, and the verifier. */
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/schedule.h"
#include "core/verify.h"
#include "dialects/deepspeed_dialect.h"
#include "models/registry.h"

namespace slapo {
namespace core {
namespace {

using nn::ModulePtr;

ModulePtr
tinyBert()
{
    return models::buildTinyModel("bert");
}

std::vector<Tensor>
runModel(nn::Module& m, const std::vector<Tensor>& inputs)
{
    std::vector<nn::Value> values;
    for (const Tensor& t : inputs) values.emplace_back(t);
    std::vector<Tensor> out;
    for (nn::Value& v : m.call(values)) out.push_back(v.tensor());
    return out;
}

TEST(Schedule, CreateMirrorsHierarchy)
{
    auto sch = Schedule::create(tinyBert());
    EXPECT_EQ((*sch)["encoder.layer.0.attention.self"].module()->typeName(),
              "SelfAttention");
    EXPECT_EQ((*sch)["embeddings.word"].module()->typeName(), "Embedding");
    EXPECT_THROW((*sch)["encoder.nope"], SlapoError);
}

TEST(Schedule, PathsAreAbsolute)
{
    auto sch = Schedule::create(tinyBert());
    Schedule& attn = (*sch)["encoder.layer.1.attention"];
    EXPECT_EQ(attn.path(), "encoder.layer.1.attention");
    EXPECT_EQ(attn.parent()->path(), "encoder.layer.1");
}

TEST(Schedule, ReplaceSwapsModuleAndRebuildsTree)
{
    auto model = tinyBert();
    auto sch = Schedule::create(model);
    Schedule& self = (*sch)["encoder.layer.0.attention.self"];
    auto attn = std::static_pointer_cast<nn::SelfAttention>(self.module());
    self.replace(nn::FusedSelfAttention::fromSelfAttention(*attn));
    EXPECT_EQ((*sch)["encoder.layer.0.attention.self"].module()->typeName(),
              "FusedSelfAttention");
    // The model tree itself changed too.
    EXPECT_EQ(model->findByPath("encoder.layer.0.attention.self.qkv")
                  ->typeName(),
              "Linear");
}

TEST(Schedule, ReplaceRootRejected)
{
    auto sch = Schedule::create(tinyBert());
    EXPECT_THROW(sch->replace(tinyBert()), SlapoError);
}

TEST(Schedule, ShardRequiresDistributedWorld)
{
    auto sch = Schedule::create(tinyBert(), /*world_size=*/1);
    EXPECT_THROW((*sch)["pooler.dense"].shard("weight", 0), SlapoError);
}

TEST(Schedule, ShardValidatesAxisAndDivisibility)
{
    auto sch = Schedule::create(tinyBert(), 2);
    Schedule& dense = (*sch)["pooler.dense"];
    EXPECT_THROW(dense.shard("weight", 5), SlapoError);
    EXPECT_THROW(dense.shard("nope", 0), SlapoError);
    dense.shard("weight", 0); // hidden=16 divisible by 2
    EXPECT_EQ(dense.module()->meta().sharded_params.at("weight").axis, 0);
}

TEST(Schedule, SyncRequiresPriorShard)
{
    auto sch = Schedule::create(tinyBert(), 2);
    Schedule& dense = (*sch)["pooler.dense"];
    EXPECT_THROW(dense.sync(nn::SyncDirection::Forward), SlapoError);
    dense.shard("weight", 1);
    dense.sync(nn::SyncDirection::Forward);
    EXPECT_EQ(dense.module()->meta().syncs.size(), 1u);
}

TEST(Schedule, StaticPrimitivesRequireTrace)
{
    auto sch = Schedule::create(tinyBert());
    Schedule& ffn = (*sch)["encoder.layer.0.ffn"];
    EXPECT_THROW(ffn.find("gelu"), SlapoError);
    EXPECT_THROW(ffn.fuse({}, "TorchScript"), SlapoError);
    nn::TraceOptions options;
    options.flatten = true;
    ffn.trace({{1, 4, 16}}, options);
    EXPECT_TRUE(ffn.traced());
    EXPECT_FALSE(ffn.find("gelu").empty());
}

TEST(Schedule, FuseRejectsUnknownCompiler)
{
    auto sch = Schedule::create(tinyBert());
    Schedule& ffn = (*sch)["encoder.layer.0.ffn"];
    nn::TraceOptions options;
    options.flatten = true;
    ffn.trace({{1, 4, 16}}, options);
    auto matches = ffn.find(graph::Pattern::chain({"Linear", "gelu"}));
    ASSERT_FALSE(matches.empty());
    EXPECT_THROW(ffn.fuse(matches[0], "XLA"), SlapoError);
}

TEST(Schedule, CheckpointSetsFlag)
{
    auto sch = Schedule::create(tinyBert());
    (*sch)["encoder.layer.0"].checkpoint();
    EXPECT_TRUE((*sch)["encoder.layer.0"].module()->meta().checkpointed);
}

TEST(Schedule, FusedFfnStaysNumericallyCorrect)
{
    auto model = tinyBert();
    model->initializeParams(7);
    ModulePtr reference = model->clone();

    auto sch = Schedule::create(model);
    Schedule& ffn = (*sch)["encoder.layer.0.ffn"];
    ffn["fc1"].decompose();
    nn::TraceOptions options;
    options.flatten = true;
    ffn.trace({{2, 8, 16}}, options);
    auto matches = ffn.find(graph::Pattern::chain({"add", "gelu"}));
    ASSERT_EQ(matches.size(), 1u);
    ffn.fuse(matches[0]);

    VerifyOptions vopts;
    vopts.input_gen = [](int trial) {
        return std::vector<Tensor>{
            Tensor::randint({2, 8}, 64, 100 + trial)};
    };
    verifyEndToEnd(*reference, *sch, vopts);
}

TEST(Schedule, PartialReplaceViaSubgraph)
{
    auto model = tinyBert();
    model->initializeParams(11);
    ModulePtr reference = model->clone();

    auto sch = Schedule::create(model);
    Schedule& ffn = (*sch)["encoder.layer.1.ffn"];
    ffn["fc1"].decompose();
    nn::TraceOptions options;
    options.flatten = true;
    ffn.trace({{2, 8, 16}}, options);
    auto matches = ffn.find(graph::Pattern::chain({"add", "gelu"}));
    ASSERT_EQ(matches.size(), 1u);

    // Replace the bias+gelu subgraph with the hand-written fused kernel.
    Tensor bias = ffn.module()->findByPath("fc1")->paramTensor("bias");
    ffn.replace(std::make_shared<nn::FusedBiasGelu>(bias), matches[0]);

    VerifyOptions vopts;
    vopts.input_gen = [](int trial) {
        return std::vector<Tensor>{
            Tensor::randint({2, 8}, 64, 200 + trial)};
    };
    verifyEndToEnd(*reference, *sch, vopts);
}

TEST(Verifier, CatchesWrongReplacement)
{
    nn::Linear a(4, 4), b(4, 4);
    a.initializeParams(1);
    b.initializeParams(2); // different weights -> different function
    VerifyOptions vopts;
    vopts.input_shapes = {{2, 4}};
    EXPECT_THROW(verifyReplacement(a, b, vopts), SlapoError);
    // A module equals itself.
    verifyReplacement(a, a, vopts);
}

TEST(Verifier, ReplacementAcceptsEquivalentFusedAttention)
{
    nn::SelfAttention attn(16, 2, 0.0, false);
    attn.initializeParams(3);
    auto fused = nn::FusedSelfAttention::fromSelfAttention(attn);
    VerifyOptions vopts;
    vopts.input_shapes = {{2, 4, 16}};
    verifyReplacement(attn, *fused, vopts);
}

TEST(Verifier, ReplaceVerifiedGuardsTheSwap)
{
    auto model = tinyBert();
    model->initializeParams(221);
    auto sch = Schedule::create(model);
    Schedule& self = (*sch)["encoder.layer.0.attention.self"];
    auto attn = std::static_pointer_cast<nn::SelfAttention>(self.module());

    VerifyOptions vopts;
    vopts.input_shapes = {{2, 8, 16}};

    // A wrong replacement (fresh weights) is rejected and NOT installed.
    auto wrong = std::make_shared<nn::SelfAttention>(16, 2, 0.0, false);
    wrong->initializeParams(999);
    EXPECT_THROW(replaceVerified(self, wrong, vopts), SlapoError);
    EXPECT_EQ((*sch)["encoder.layer.0.attention.self"].module()->typeName(),
              "SelfAttention");

    // The weight-preserving fused replacement passes and lands.
    replaceVerified(self, nn::FusedSelfAttention::fromSelfAttention(*attn),
                    vopts);
    EXPECT_EQ((*sch)["encoder.layer.0.attention.self"].module()->typeName(),
              "FusedSelfAttention");
}

TEST(Schedule, AlbertSharedLayerSchedulesAllApplications)
{
    // ALBERT reuses one layer module: a single .checkpoint() on it must
    // cover every one of the `layers` applications in the profile.
    auto model = models::buildTinyModel("albert");
    auto sch = Schedule::create(model);
    (*sch)["shared_layer"].checkpoint();

    nn::CostRecorder profiler(2.0);
    {
        nn::CostRecorderGuard guard(&profiler);
        model->call({nn::Value(Tensor::meta({1, 8}))});
    }
    int layer_kernels = 0;
    for (const auto& k : profiler.profile().kernels) {
        if (k.module_path.find("TransformerLayer") != std::string::npos) {
            ++layer_kernels;
            EXPECT_TRUE(k.checkpointed) << k.module_path << "/" << k.name;
        }
    }
    EXPECT_GT(layer_kernels, 0);
}

TEST(Verifier, MissingSyncDetected)
{
    auto model = tinyBert();
    model->initializeParams(5);
    ModulePtr reference = model->clone();

    auto sch = Schedule::create(model, 2);
    Schedule& ffn = (*sch)["encoder.layer.0.ffn"];
    // Column-shard fc1 and row-shard fc2 but "forget" the all-reduce:
    ffn["fc1"].shard(std::vector<std::string>{"weight", "bias"}, 0);
    ffn["fc2"].shard("weight", 1);

    VerifyOptions vopts;
    vopts.input_gen = [](int trial) {
        return std::vector<Tensor>{Tensor::randint({1, 4}, 64, 42 + trial)};
    };
    EXPECT_THROW(verifyEndToEnd(*reference, *sch, vopts), SlapoError);

    // Adding the sync point fixes it.
    ffn["fc2"].sync(nn::SyncDirection::Forward);
    verifyEndToEnd(*reference, *sch, vopts);
}

TEST(Verifier, GradientCheckAcceptsFusedSchedule)
{
    auto model = tinyBert();
    model->initializeParams(71);
    ModulePtr reference = model->clone();

    auto sch = Schedule::create(model);
    Schedule& ffn = (*sch)["encoder.layer.0.ffn"];
    ffn["fc1"].decompose();
    nn::TraceOptions options;
    options.flatten = true;
    ffn.trace({{2, 8, 16}}, options);
    ffn.fuse(ffn.find(graph::Pattern::chain({"add", "gelu"})).front());
    (*sch)["encoder.layer.1"].checkpoint();

    VerifyOptions vopts;
    vopts.num_inputs = 1;
    vopts.check_gradients = true;
    vopts.tolerance = 1e-3f;
    vopts.input_gen = [](int trial) {
        return std::vector<Tensor>{Tensor::randint({2, 8}, 64, 73 + trial)};
    };
    verifyEndToEnd(*reference, *sch, vopts);
}

TEST(Verifier, GradientCheckCatchesWrongBackward)
{
    // Replace a linear with different weights: forward check would catch
    // it, so freeze forward-equivalent weights but a *different dropout
    // seed* with p > 0 — forward differs too... instead, perturb a
    // parameter slightly below the forward tolerance but above the
    // gradient tolerance is fragile; use a coarse replacement and expect
    // the combined check to throw.
    auto model = tinyBert();
    model->initializeParams(79);
    ModulePtr reference = model->clone();
    auto sch = Schedule::create(model);
    auto fresh = std::make_shared<nn::Linear>(16, 16);
    fresh->initializeParams(997); // different function
    (*sch)["encoder.layer.0.ffn.fc2"].replace(fresh);

    VerifyOptions vopts;
    vopts.num_inputs = 1;
    vopts.check_gradients = true;
    vopts.input_gen = [](int trial) {
        return std::vector<Tensor>{Tensor::randint({2, 8}, 64, 83 + trial)};
    };
    EXPECT_THROW(verifyEndToEnd(*reference, *sch, vopts), SlapoError);
}

TEST(Pipeline, RequiresAnnotations)
{
    auto sch = Schedule::create(tinyBert(), 2);
    EXPECT_THROW(partitionPipeline(*sch, {{1, 4}}), SlapoError);
}

TEST(Pipeline, SplitRequiresDistributedWorld)
{
    auto sch = Schedule::create(tinyBert(), 1);
    EXPECT_THROW((*sch)["encoder.layer.0"].pipelineSplit(), SlapoError);
}

TEST(Pipeline, Fig5PartitionIncludesSiblings)
{
    // Split the 2-layer tiny BERT after layer 0: embeddings must land in
    // stage 0 and the pooler in stage 1 even though only the encoder's
    // containers get traced (Fig. 5).
    auto sch = Schedule::create(tinyBert(), 2);
    (*sch)["encoder.layer.0"].pipelineSplit();
    auto stages = partitionPipeline(*sch, {{1, 4}});
    ASSERT_EQ(stages.size(), 2u);
    ASSERT_EQ(stages[0].modules.size(), 2u);
    EXPECT_EQ(stages[0].modules[0].first, "embeddings");
    EXPECT_EQ(stages[0].modules[1].first, "encoder.layer.0");
    ASSERT_EQ(stages[1].modules.size(), 2u);
    EXPECT_EQ(stages[1].modules[0].first, "encoder.layer.1");
    EXPECT_EQ(stages[1].modules[1].first, "pooler");
}

TEST(Pipeline, StagesComputeTheSameFunction)
{
    auto model = tinyBert();
    model->initializeParams(13);
    ModulePtr reference = model->clone();

    auto sch = Schedule::create(model, 2);
    (*sch)["encoder.layer.0"].pipelineSplit();
    auto stages = partitionPipeline(*sch, {{1, 4}});
    auto wrapped = dialects::wrapForDeepSpeedPipeline(stages);

    Tensor ids = Tensor::randint({1, 4}, 64, 99);
    auto expected = runModel(*reference, {ids});
    std::vector<nn::Value> tuple = {nn::Value(ids)};
    tuple = dialects::runPipelineSequentially(wrapped, tuple);
    ASSERT_EQ(tuple.size(), 1u);
    EXPECT_TRUE(Tensor::allClose(expected[0], tuple[0].tensor(), 1e-4f));
}

TEST(Pipeline, GptSplitsAcrossDecoder)
{
    // OPT shares the GPT architecture but its top module is traceable;
    // GPT-Neo's untraceable top is covered by the TorchScript tests.
    auto model = models::buildTinyModel("opt");
    auto sch = Schedule::create(model, 2);
    (*sch)["decoder.layer.0"].pipelineSplit();
    auto stages = partitionPipeline(*sch, {{1, 4}});
    ASSERT_EQ(stages.size(), 2u);
    EXPECT_EQ(stages[0].modules.front().first, "embeddings");
    EXPECT_EQ(stages[1].modules.back().first, "head");
}

TEST(Schedule, UnApplyRestoresDefaultSchedule)
{
    auto model = tinyBert();
    model->initializeParams(211);
    ModulePtr reference = model->clone();

    auto sch = Schedule::create(model, 2);
    Schedule& fc1 = (*sch)["encoder.layer.0.ffn.fc1"];
    Schedule& fc2 = (*sch)["encoder.layer.0.ffn.fc2"];
    fc1.shard(std::vector<std::string>{"weight", "bias"}, 0);
    fc2.shard("weight", 1);
    fc2.sync(nn::SyncDirection::Forward);
    (*sch)["encoder.layer.1"].checkpoint();
    Schedule& ffn1 = (*sch)["encoder.layer.1.ffn"];
    ffn1.trace({{2, 8, 16}});

    // Un-apply everything, one by one (§3: "apply (or un-apply)").
    fc1.unshard("weight");
    fc1.unshard("bias");
    fc2.unshard("weight"); // last shard: orphaned sync dropped too
    (*sch)["encoder.layer.1"].uncheckpoint();
    ffn1.untrace();

    EXPECT_EQ(sch->toString(), "");
    // And the model behaves exactly like the untouched reference again,
    // on a single device.
    std::vector<nn::Value> in = {nn::Value(Tensor::randint({2, 8}, 64, 213))};
    EXPECT_TRUE(Tensor::allClose(reference->callOne(in).tensor(),
                                 model->callOne(in).tensor(), 1e-5f));
}

TEST(Schedule, UnshardRejectsUnknownParam)
{
    auto sch = Schedule::create(tinyBert(), 2);
    EXPECT_THROW((*sch)["pooler.dense"].unshard("weight"), SlapoError);
}

TEST(Schedule, ToStringListsAppliedPrimitives)
{
    auto sch = Schedule::create(tinyBert(), 2);
    EXPECT_EQ(sch->toString(), ""); // default schedule: nothing applied

    (*sch)["encoder.layer.0.ffn.fc1"].shard(
        std::vector<std::string>{"weight", "bias"}, 0);
    (*sch)["encoder.layer.0.ffn.fc2"].shard("weight", 1);
    (*sch)["encoder.layer.0.ffn.fc2"].sync(nn::SyncDirection::Forward);
    (*sch)["encoder.layer.1"].checkpoint();
    (*sch)["encoder.layer.0"].pipelineSplit();

    const std::string dump = sch->toString();
    EXPECT_NE(dump.find(".shard(weight, axis=0)"), std::string::npos);
    EXPECT_NE(dump.find(".shard(weight, axis=1)"), std::string::npos);
    EXPECT_NE(dump.find(".sync(forward, all_reduce)"), std::string::npos);
    EXPECT_NE(dump.find("encoder.layer.1 (TransformerLayer): .checkpoint()"),
              std::string::npos);
    EXPECT_NE(dump.find(".pipeline_split()"), std::string::npos);
    // Unscheduled modules stay out of the dump.
    EXPECT_EQ(dump.find("pooler"), std::string::npos);
}

TEST(Schedule, ToStringShowsTraceAndInterleave)
{
    auto sch = Schedule::create(tinyBert(), 2);
    Schedule& self = (*sch)["encoder.layer.0.attention.self"];
    auto attn = std::static_pointer_cast<nn::SelfAttention>(self.module());
    self.replace(nn::FusedSelfAttention::fromSelfAttention(*attn));
    (*sch)["encoder.layer.0.attention.self.qkv"].shard("weight", 0, 3);
    Schedule& ffn = (*sch)["encoder.layer.0.ffn"];
    nn::TraceOptions options;
    options.flatten = true;
    ffn.trace({{1, 4, 16}}, options);

    const std::string dump = sch->toString();
    EXPECT_NE(dump.find("interleave=3"), std::string::npos);
    EXPECT_NE(dump.find(".trace("), std::string::npos);
}

TEST(Graph, ValidateAcceptsTracedAndRewrittenGraphs)
{
    auto sch = Schedule::create(tinyBert());
    Schedule& ffn = (*sch)["encoder.layer.0.ffn"];
    ffn["fc1"].decompose();
    nn::TraceOptions options;
    options.flatten = true;
    ffn.trace({{1, 4, 16}}, options);
    ffn.graph().validate();
    ffn.fuse(ffn.find(graph::Pattern::chain({"add", "gelu"})).front());
    ffn.graph().validate(); // still well-formed after the rewrite
}

TEST(Graph, ValidateRejectsUseBeforeDef)
{
    graph::Graph g;
    graph::Node* ph = g.createNode(graph::NodeKind::Placeholder, "x");
    ph->setShapes({{2}});
    graph::Node* out = g.createNode(graph::NodeKind::Output, "out");
    graph::Node* late =
        g.createNode(graph::NodeKind::CallOp, "late"); // after output
    late->setOp(graph::OpKind::Gelu);
    late->addInput(ph);
    late->setShapes({{2}});
    out->addInput(late); // uses a node defined after it
    out->setShapes({{2}});
    g.setOutputNode(out);
    EXPECT_THROW(g.validate(), SlapoError);
}

TEST(Schedule, SubtreeEnumerates)
{
    auto sch = Schedule::create(models::buildTinyModel("opt"), 1);
    auto all = sch->subtree();
    EXPECT_GT(all.size(), 10u);
    EXPECT_EQ(all.front(), sch.get());
}

} // namespace
} // namespace core
} // namespace slapo
