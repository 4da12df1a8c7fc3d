/** @file Property-style invariants, parameterized across ops, models,
 * world sizes, and schedule knobs (gtest TEST_P sweeps). */
#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "core/auto_shard.h"
#include "core/verify.h"
#include "models/registry.h"
#include "runtime/dist_executor.h"
#include "runtime/process_group.h"
#include "tensor/ops.h"

namespace slapo {
namespace {

// --- elementwise op properties ----------------------------------------------

using UnaryFn = Tensor (*)(const Tensor&);

struct UnaryCase
{
    const char* name;
    UnaryFn fn;
    bool bounded01; ///< output in [0, 1]
};

Tensor
geluWrap(const Tensor& t)
{
    return ops::gelu(t);
}
Tensor
reluWrap(const Tensor& t)
{
    return ops::relu(t);
}
Tensor
tanhWrap(const Tensor& t)
{
    return ops::tanhOp(t);
}
Tensor
softmaxWrap(const Tensor& t)
{
    return ops::softmax(t);
}

/** gtest_discover_tests names each ctest after this printout; the default
 * would print `name` and `fn` as raw addresses, which move on every run. */
void
PrintTo(const UnaryCase& c, std::ostream* os)
{
    *os << c.name;
}

class UnaryOpProperty : public ::testing::TestWithParam<UnaryCase>
{
};

TEST_P(UnaryOpProperty, ShapePreservingAndDeterministic)
{
    const UnaryCase& c = GetParam();
    Tensor x = Tensor::uniform({3, 5, 7}, 2.0f, 123);
    Tensor y1 = c.fn(x);
    Tensor y2 = c.fn(x);
    EXPECT_EQ(y1.shape(), x.shape());
    EXPECT_TRUE(Tensor::allClose(y1, y2));
    if (c.bounded01) {
        for (int64_t i = 0; i < y1.numel(); ++i) {
            EXPECT_GE(y1.at(i), 0.0f);
            EXPECT_LE(y1.at(i), 1.0f);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryOpProperty,
    ::testing::Values(UnaryCase{"gelu", &geluWrap, false},
                      UnaryCase{"relu", &reluWrap, false},
                      UnaryCase{"tanh", &tanhWrap, false},
                      UnaryCase{"softmax", &softmaxWrap, true}));

// --- schedules preserve model FLOPs --------------------------------------------

class FlopsInvariance : public ::testing::TestWithParam<const char*>
{
};

/**
 * Property: schedules change *how* a model executes, never *what* it
 * computes — so the profiled forward FLOPs are invariant across every
 * recipe (fusion accumulates, flash recomputes internally; both keep the
 * arithmetic identical).
 */
TEST_P(FlopsInvariance, RecipesKeepForwardFlops)
{
    const std::string name = GetParam();
    sim::TrainingSimulator simulator(sim::ClusterSpec::singleV100(),
                                     baselines::modelBytesPerElement(name));
    auto shapes = baselines::modelShapeFn(name, 0)(2);

    auto flops_of = [&](const baselines::ScheduleRecipe& recipe) {
        auto sch = baselines::applyRecipe(models::buildModel(name, 0), recipe);
        return simulator.profileModel(*sch->module(), shapes, 1).totalFlops();
    };
    const double vanilla = flops_of(baselines::ScheduleRecipe::vanilla());
    const double kernels =
        flops_of(baselines::ScheduleRecipe::kernelOptimized());
    const double ckpt =
        flops_of(baselines::ScheduleRecipe::kernelOptimized(0.5));
    EXPECT_NEAR(kernels / vanilla, 1.0, 0.01) << name;
    EXPECT_NEAR(ckpt / vanilla, 1.0, 0.01) << name;
}

INSTANTIATE_TEST_SUITE_P(Models, FlopsInvariance,
                         ::testing::Values("bert", "roberta", "albert", "gpt",
                                           "opt", "t5", "wideresnet"));

/** TP over N ranks splits compute: with the auto-sharded plan (which
 * also shards the vocabulary head) N x rank-0 FLOPs ~ full FLOPs, up to
 * the replicated embeddings/norms. */
TEST(FlopsInvariance, TensorParallelPartitionsWork)
{
    sim::TrainingSimulator simulator(sim::ClusterSpec::p3_16xlarge(), 2.0);
    auto shapes = baselines::modelShapeFn("bert", 0)(2);
    auto full = baselines::applyRecipe(models::buildModel("bert", 0),
                                       baselines::ScheduleRecipe::vanilla());
    const double full_flops =
        simulator.profileModel(*full->module(), shapes, 1).totalFlops();
    for (int tp : {2, 4, 8}) {
        auto sch = core::Schedule::create(models::buildModel("bert", 0), tp);
        core::autoShard(*sch);
        const double rank_flops =
            simulator.profileModel(*sch->module(), shapes, tp).totalFlops();
        EXPECT_NEAR(rank_flops * tp / full_flops, 1.0, 0.15) << "tp=" << tp;
        // And strictly fewer FLOPs per rank than the full model.
        EXPECT_LT(rank_flops, full_flops);
    }
}

// --- distributed equivalence across world sizes ---------------------------------

class WorldSizeSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(WorldSizeSweep, AutoShardedBertMatchesReference)
{
    const int world = GetParam();
    // A 4-way shard needs 4 heads; build a slightly wider test model.
    models::TransformerConfig config =
        models::modelConfig("bert", 0).scaled(/*hidden=*/32, /*layers=*/2,
                                              /*heads=*/4, /*vocab=*/64,
                                              /*seq=*/8);
    config.dropout = 0.0;
    nn::ModulePtr model = std::make_shared<models::BertModel>(config);
    model->initializeParams(31);
    nn::ModulePtr reference = model->clone();
    auto sch = core::Schedule::create(model, world);
    core::autoShard(*sch);

    core::VerifyOptions vopts;
    vopts.input_gen = [](int trial) {
        return std::vector<Tensor>{Tensor::randint({2, 8}, 64, 50 + trial)};
    };
    core::verifyEndToEnd(*reference, *sch, vopts);
}

INSTANTIATE_TEST_SUITE_P(Worlds, WorldSizeSweep, ::testing::Values(2, 4));

TEST(SyncStrategies, ImmediateAllGatherIsAlsoCorrect)
{
    // The "naive" strategy of ablation B — all-gather right after the
    // column-parallel linear — must also verify (it is valid, just more
    // expensive), demonstrating the flexibility of explicit .sync().
    auto model = models::buildTinyModel("bert");
    model->initializeParams(37);
    nn::ModulePtr reference = model->clone();
    auto sch = core::Schedule::create(model, 2);
    for (auto& [path, m] : model->namedModules()) {
        if (m->typeName() == "FFN") {
            core::Schedule& ffn = (*sch)[path];
            ffn["fc1"].shard(std::vector<std::string>{"weight", "bias"}, 0);
            ffn["fc1"].sync(nn::SyncDirection::Forward,
                            nn::SyncKind::AllGather, /*axis=*/-1);
        }
    }
    core::VerifyOptions vopts;
    vopts.input_gen = [](int trial) {
        return std::vector<Tensor>{Tensor::randint({2, 8}, 64, 60 + trial)};
    };
    core::verifyEndToEnd(*reference, *sch, vopts);
}

// --- simulator monotonicity -----------------------------------------------------

TEST(SimulatorMonotonicity, ThroughputGrowsWithDataParallelism)
{
    auto model = models::buildModel("bert", 0);
    auto shapes = baselines::modelShapeFn("bert", 0);
    double previous = 0;
    for (int dp : {1, 2, 4, 8}) {
        sim::ClusterSpec cluster = sim::ClusterSpec::p3_16xlarge();
        cluster.gpus_per_node = dp;
        sim::TrainingSimulator simulator(cluster, 2.0);
        sim::ParallelConfig config;
        config.dp = dp;
        config.micro_batch = 4;
        sim::StepStats stats = simulator.simulate(*model, shapes, config);
        ASSERT_FALSE(stats.oom);
        EXPECT_GT(stats.throughput, previous) << "dp=" << dp;
        previous = stats.throughput;
    }
}

TEST(SimulatorMonotonicity, ActivationMemoryGrowsWithMicroBatch)
{
    sim::TrainingSimulator simulator(sim::ClusterSpec::singleV100(), 2.0);
    auto model = models::buildModel("bert", 0);
    sim::MemoryModel mm(2.0, 0, 1);
    double previous = 0;
    for (int mb : {1, 2, 4, 8}) {
        nn::Profile profile = simulator.profileModel(*model, {{mb, 512}}, 1);
        const double act = mm.activationMemory(profile);
        EXPECT_GT(act, previous);
        previous = act;
    }
}

TEST(SimulatorMonotonicity, ActivationMemoryFallsWithCheckpointRatio)
{
    sim::TrainingSimulator simulator(sim::ClusterSpec::singleV100(), 2.0);
    sim::MemoryModel mm(2.0, 0, 1);
    double previous = 1e18;
    for (double ratio : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        auto sch = baselines::applyRecipe(
            models::buildModel("bert", 0),
            baselines::ScheduleRecipe::kernelOptimized(ratio));
        nn::Profile profile =
            simulator.profileModel(*sch->module(), {{4, 512}}, 1);
        const double act = mm.activationMemory(profile);
        EXPECT_LT(act, previous) << "ratio " << ratio;
        previous = act;
    }
}

TEST(SimulatorMonotonicity, RecomputeGrowsWithCheckpointRatio)
{
    sim::TrainingSimulator simulator(sim::ClusterSpec::singleV100(), 2.0);
    auto shapes = baselines::modelShapeFn("bert", 0);
    double previous = -1;
    for (double ratio : {0.0, 0.5, 1.0}) {
        auto sch = baselines::applyRecipe(
            models::buildModel("bert", 0),
            baselines::ScheduleRecipe::kernelOptimized(ratio));
        sim::ParallelConfig config;
        config.micro_batch = 4;
        sim::StepStats stats =
            simulator.simulate(*sch->module(), shapes, config);
        EXPECT_GT(stats.phases.recompute, previous);
        previous = stats.phases.recompute;
    }
}

// --- verifier options honored ------------------------------------------------

// --- robustness / failure injection ----------------------------------------

TEST(Robustness, WorldSizeOneIsPassthrough)
{
    auto model = models::buildTinyModel("bert");
    model->initializeParams(301);
    Tensor ids = Tensor::randint({1, 8}, 64, 303);
    std::vector<nn::Value> vx = {nn::Value(ids)};
    Tensor expected = model->callOne(vx).tensor();

    runtime::DistExecutor executor(1);
    auto outputs = executor.forward(*model, {ids});
    ASSERT_EQ(outputs.size(), 1u);
    EXPECT_TRUE(Tensor::allClose(expected, outputs[0][0], 1e-6f));
}

TEST(Robustness, AllOomTuningReportsOom)
{
    // A 16GB device cannot fit GPT-10B at any batch size.
    sim::TrainingSimulator simulator(sim::ClusterSpec::singleV100(), 2.0);
    auto model = models::buildGpt10B();
    sim::StepStats best = simulator.tuneMicroBatch(
        *model, baselines::modelShapeFn("gpt-10b", 0), {}, 16);
    EXPECT_TRUE(best.oom);
    EXPECT_DOUBLE_EQ(best.throughput, 0.0);
}

TEST(Robustness, SimulatorRejectsWorldMismatch)
{
    sim::TrainingSimulator simulator(sim::ClusterSpec::p3_16xlarge(), 2.0);
    auto model = models::buildModel("bert", 0);
    sim::ParallelConfig config;
    config.dp = 4; // cluster has 8 GPUs
    EXPECT_THROW(simulator.simulate(*model,
                                    baselines::modelShapeFn("bert", 0),
                                    config),
                 SlapoError);
}

TEST(Robustness, ProcessGroupRejectsBadRank)
{
    runtime::ProcessGroup group(2);
    EXPECT_THROW(group.allReduce(5, Tensor::zeros({1})), SlapoError);
}

TEST(Robustness, IdentityProfileTransformChangesNothing)
{
    sim::TrainingSimulator simulator(sim::ClusterSpec::singleV100(), 2.0);
    auto model = models::buildModel("bert", 0);
    auto shapes = baselines::modelShapeFn("bert", 0);
    sim::ParallelConfig config;
    config.micro_batch = 2;
    sim::StepStats plain = simulator.simulate(*model, shapes, config);
    sim::StepStats transformed = simulator.simulate(
        *model, shapes, config, [](nn::Profile p) { return p; });
    EXPECT_DOUBLE_EQ(plain.step_time, transformed.step_time);
    EXPECT_DOUBLE_EQ(plain.memory.total(), transformed.memory.total());
}

TEST(VerifierOptions, NumInputsControlsTrials)
{
    nn::Linear lin(4, 4);
    lin.initializeParams(1);
    int calls = 0;
    core::VerifyOptions vopts;
    vopts.num_inputs = 5;
    vopts.input_gen = [&calls](int) {
        ++calls;
        return std::vector<Tensor>{Tensor::uniform({2, 4}, 1.0f, 9)};
    };
    core::verifyReplacement(lin, lin, vopts);
    EXPECT_EQ(calls, 5);
}

TEST(VerifierOptions, ToleranceIsRespected)
{
    nn::Linear a(4, 4);
    a.initializeParams(1);
    auto b = std::static_pointer_cast<nn::Linear>(a.clone());
    // Perturb one weight slightly.
    b->paramTensor("weight").set(0, b->paramTensor("weight").at(0) + 1e-4f);
    core::VerifyOptions strict;
    strict.input_shapes = {{2, 4}};
    strict.tolerance = 1e-7f;
    EXPECT_THROW(core::verifyReplacement(a, *b, strict), SlapoError);
    core::VerifyOptions loose = strict;
    loose.tolerance = 1e-2f;
    core::verifyReplacement(a, *b, loose);
}

} // namespace
} // namespace slapo
