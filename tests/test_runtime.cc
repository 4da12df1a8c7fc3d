/** @file Tests of the distributed runtime: collectives, rank sharding,
 * autograd (incl. checkpointing), and tensor-parallel training. */
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "analysis/lint.h"
#include "baselines/slapo_schedules.h"
#include "core/schedule.h"
#include "sim/memory_model.h"
#include "models/dataset.h"
#include "models/registry.h"
#include "nn/functional.h"
#include "obs/metrics.h"
#include "tensor/alloc.h"
#include "runtime/autograd.h"
#include "runtime/dist_executor.h"
#include "runtime/trainer.h"
#include "tensor/ops.h"
#include "tensor/optim.h"

namespace slapo {
namespace runtime {
namespace {

using nn::ModulePtr;

TEST(ProcessGroup, AllReduceSums)
{
    ProcessGroup group(4);
    std::vector<std::thread> threads;
    std::vector<Tensor> results(4);
    for (int r = 0; r < 4; ++r) {
        threads.emplace_back([&, r] {
            Tensor t = Tensor::full({3}, static_cast<float>(r + 1));
            results[r] = group.allReduce(r, t);
        });
    }
    for (auto& t : threads) t.join();
    for (int r = 0; r < 4; ++r) {
        EXPECT_FLOAT_EQ(results[r].at(0), 10.0f); // 1+2+3+4
    }
}

TEST(ProcessGroup, AllGatherConcatenates)
{
    ProcessGroup group(2);
    std::vector<std::thread> threads;
    std::vector<Tensor> results(2);
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&, r] {
            Tensor t = Tensor::full({1, 2}, static_cast<float>(r));
            results[r] = group.allGather(r, t, 1);
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(results[0].shape(), (Shape{1, 4}));
    EXPECT_FLOAT_EQ(results[0].at(0), 0.0f);
    EXPECT_FLOAT_EQ(results[0].at(3), 1.0f);
    EXPECT_TRUE(Tensor::allClose(results[0], results[1]));
}

TEST(ProcessGroup, ReduceScatterSplitsTheSum)
{
    ProcessGroup group(2);
    std::vector<std::thread> threads;
    std::vector<Tensor> results(2);
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&, r] {
            Tensor t = Tensor::fromValues({4}, {1, 2, 3, 4});
            results[r] = group.reduceScatter(r, t, 0);
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(results[0].shape(), (Shape{2}));
    EXPECT_FLOAT_EQ(results[0].at(0), 2.0f); // 1+1
    EXPECT_FLOAT_EQ(results[1].at(1), 8.0f); // 4+4
}

TEST(ProcessGroup, SequentialCollectivesStayConsistent)
{
    // Several back-to-back collectives must not cross-contaminate.
    ProcessGroup group(3);
    std::vector<std::thread> threads;
    std::vector<float> sums(3);
    for (int r = 0; r < 3; ++r) {
        threads.emplace_back([&, r] {
            float acc = 0;
            for (int k = 0; k < 5; ++k) {
                Tensor t = Tensor::full({1}, static_cast<float>(r + k));
                acc += group.allReduce(r, t).at(0);
            }
            sums[r] = acc;
        });
    }
    for (auto& t : threads) t.join();
    // Each round sums to 3k + 3; total over k=0..4: 3*10 + 15 = 45.
    for (int r = 0; r < 3; ++r) {
        EXPECT_FLOAT_EQ(sums[r], 45.0f);
    }
}

TEST(DistExecutor, ShardsColumnParallelLinear)
{
    nn::Linear lin(4, 8);
    lin.initializeParams(3);
    nn::ShardSpec spec;
    spec.axis = 0;
    spec.world_size = 2;
    lin.meta().sharded_params["weight"] = spec;
    lin.meta().sharded_params["bias"] = spec;

    ModulePtr replica = lin.clone();
    DistExecutor::shardParamsForRank(*replica, 1, 2);
    EXPECT_EQ(replica->paramTensor("weight").shape(), (Shape{4, 4}));
    // Rank 1 holds rows 4..7.
    EXPECT_FLOAT_EQ(replica->paramTensor("weight").at(0),
                    lin.paramTensor("weight").at(16));
}

TEST(DistExecutor, InterleavedShardKeepsQkvGroups)
{
    // A (6, 2) "fused" weight with q/k/v groups of 2 rows each.
    nn::Linear lin(2, 6);
    lin.setParamTensor("weight",
                       Tensor::fromValues({6, 2}, {0, 0, 1, 1,    // q
                                                   10, 10, 11, 11, // k
                                                   20, 20, 21, 21})); // v
    lin.setParamTensor("bias", Tensor::zeros({6}));
    nn::ShardSpec spec;
    spec.axis = 0;
    spec.world_size = 2;
    spec.interleave = 3;
    lin.meta().sharded_params["weight"] = spec;

    ModulePtr replica = lin.clone();
    DistExecutor::shardParamsForRank(*replica, 1, 2);
    const Tensor& w = replica->paramTensor("weight");
    EXPECT_EQ(w.shape(), (Shape{3, 2}));
    EXPECT_FLOAT_EQ(w.at(0), 1);  // q row 1
    EXPECT_FLOAT_EQ(w.at(2), 11); // k row 1
    EXPECT_FLOAT_EQ(w.at(4), 21); // v row 1
}

TEST(DistExecutor, RowParallelBiasScaled)
{
    nn::Linear lin(8, 4);
    lin.initializeParams(5);
    nn::ShardSpec spec;
    spec.axis = 1;
    spec.world_size = 2;
    lin.meta().sharded_params["weight"] = spec;

    ModulePtr replica = lin.clone();
    DistExecutor::shardParamsForRank(*replica, 0, 2);
    EXPECT_EQ(replica->paramTensor("weight").shape(), (Shape{4, 4}));
    EXPECT_NEAR(replica->paramTensor("bias").at(0),
                lin.paramTensor("bias").at(0) / 2.0f, 1e-6f);
}

TEST(DistExecutor, ShardedLinearPairMatchesDense)
{
    // fc1 column-parallel + fc2 row-parallel + all-reduce == dense pair.
    auto seq = std::make_shared<nn::Sequential>();
    seq->append(std::make_shared<nn::Linear>(6, 8));
    seq->append(std::make_shared<nn::Linear>(8, 6));
    seq->initializeParams(7);
    ModulePtr reference = seq->clone();

    nn::ShardSpec col;
    col.axis = 0;
    col.world_size = 2;
    seq->child("0")->meta().sharded_params["weight"] = col;
    seq->child("0")->meta().sharded_params["bias"] = col;
    nn::ShardSpec row;
    row.axis = 1;
    row.world_size = 2;
    seq->child("1")->meta().sharded_params["weight"] = row;
    nn::SyncSpec sync;
    sync.direction = nn::SyncDirection::Forward;
    seq->child("1")->meta().syncs.push_back(sync);

    Tensor x = Tensor::uniform({3, 6}, 1.0f, 11);
    std::vector<nn::Value> vx = {nn::Value(x)};
    Tensor expected = reference->callOne(vx).tensor();

    DistExecutor executor(2);
    auto outputs = executor.forward(*seq, {x});
    for (int r = 0; r < 2; ++r) {
        EXPECT_TRUE(Tensor::allClose(expected, outputs[r][0], 1e-4f));
    }
}

// --- autograd ----------------------------------------------------------------

TEST(Autograd, LinearRegressionGradsMatchFiniteDifference)
{
    auto lin = std::make_shared<nn::Linear>(3, 1);
    lin->initializeParams(13);
    auto model = withMseLoss(lin);

    Tensor x = Tensor::uniform({4, 3}, 1.0f, 17);
    Tensor y = Tensor::uniform({4, 1}, 1.0f, 19);

    AutogradEngine engine;
    GradResult result = engine.run(*model, {x, y});
    ASSERT_EQ(result.outputs.size(), 1u);

    Tensor& w = lin->paramTensor("weight");
    Tensor analytic = AutogradEngine::gradFor(result, w);
    // Finite differences on each weight entry.
    for (int64_t i = 0; i < w.numel(); ++i) {
        const float eps = 1e-3f;
        const float orig = w.at(i);
        auto loss_at = [&](float v) {
            w.set(i, v);
            AutogradEngine e2;
            return e2.run(*model, {x, y}).outputs[0].at(0);
        };
        const float fd = (loss_at(orig + eps) - loss_at(orig - eps)) / (2 * eps);
        w.set(i, orig);
        EXPECT_NEAR(analytic.at(i), fd, 5e-3f);
    }
}

TEST(Autograd, TransformerLossDecreasesUnderAdamW)
{
    auto model = withCrossEntropyLoss(models::buildTinyModel("bert"));
    model->initializeParams(23);

    AdamWConfig opt_config;
    opt_config.lr = 5e-3f;
    AdamW opt(opt_config);
    auto params = model->namedParams();
    for (auto& [path, t] : params) {
        opt.addParam(*t);
    }

    Tensor ids = Tensor::randint({2, 8}, 64, 29);
    Tensor targets = Tensor::randint({2, 8}, 64, 31);

    float first_loss = 0;
    float last_loss = 0;
    for (int step = 0; step < 8; ++step) {
        AutogradEngine engine;
        GradResult result = engine.run(*model, {ids, targets});
        const float loss = result.outputs[0].at(0);
        if (step == 0) first_loss = loss;
        last_loss = loss;
        std::vector<Tensor> grads;
        for (auto& [path, t] : params) {
            grads.push_back(AutogradEngine::gradFor(result, *t));
        }
        opt.step(grads);
    }
    EXPECT_LT(last_loss, first_loss);
}

TEST(Autograd, CheckpointingSavesMemorySameGrads)
{
    auto make_model = [] {
        auto m = withCrossEntropyLoss(models::buildTinyModel("bert"));
        m->initializeParams(37);
        return m;
    };
    auto plain = make_model();
    auto ckpt = make_model();
    // Checkpoint both encoder layers of the checkpointed copy.
    for (auto& [path, m] : ckpt->namedModules()) {
        if (m->typeName() == "TransformerLayer") {
            m->meta().checkpointed = true;
        }
    }

    Tensor ids = Tensor::randint({2, 8}, 64, 41);
    Tensor targets = Tensor::randint({2, 8}, 64, 43);

    AutogradEngine e1, e2;
    GradResult r1 = e1.run(*plain, {ids, targets});
    GradResult r2 = e2.run(*ckpt, {ids, targets});

    // Same loss and same gradients...
    EXPECT_NEAR(r1.outputs[0].at(0), r2.outputs[0].at(0), 1e-5f);
    auto p1 = plain->namedParams();
    auto p2 = ckpt->namedParams();
    ASSERT_EQ(p1.size(), p2.size());
    for (size_t i = 0; i < p1.size(); ++i) {
        Tensor g1 = AutogradEngine::gradFor(r1, *p1[i].second);
        Tensor g2 = AutogradEngine::gradFor(r2, *p2[i].second);
        EXPECT_TRUE(Tensor::allClose(g1, g2, 1e-4f))
            << "grad mismatch at " << p1[i].first;
    }
    // ...but less retained activation memory and some recompute.
    EXPECT_LT(r2.stored_activation_bytes, r1.stored_activation_bytes);
    EXPECT_GT(r2.recomputed_nodes, 0);
    EXPECT_EQ(r1.recomputed_nodes, 0);
}

TEST(Autograd, PartialCheckpointSubgraphRematerializes)
{
    // .checkpoint(subgraph): flag the GeLU + bias-add region inside one
    // FFN; gradients must be identical while the flagged activations are
    // evicted after forward and rematerialized in backward.
    auto make_model = [](bool partial_ckpt) {
        auto inner = models::buildTinyModel("bert");
        auto sch = core::Schedule::create(inner);
        core::Schedule& ffn = (*sch)["encoder.layer.0.ffn"];
        ffn["fc1"].decompose();
        nn::TraceOptions options;
        options.flatten = true;
        ffn.trace({{2, 8, 16}}, options);
        if (partial_ckpt) {
            auto matches = ffn.find(graph::Pattern::chain({"add", "gelu"}));
            ffn.checkpoint(matches.front());
        }
        auto m = withCrossEntropyLoss(inner);
        m->initializeParams(61);
        return m;
    };
    auto plain = make_model(false);
    auto partial = make_model(true);

    Tensor ids = Tensor::randint({2, 8}, 64, 63);
    Tensor targets = Tensor::randint({2, 8}, 64, 67);
    AutogradEngine e1, e2;
    GradResult r1 = e1.run(*plain, {ids, targets});
    GradResult r2 = e2.run(*partial, {ids, targets});

    EXPECT_NEAR(r1.outputs[0].at(0), r2.outputs[0].at(0), 1e-5f);
    auto p1 = plain->namedParams();
    auto p2 = partial->namedParams();
    for (size_t i = 0; i < p1.size(); ++i) {
        EXPECT_TRUE(Tensor::allClose(AutogradEngine::gradFor(r1, *p1[i].second),
                                     AutogradEngine::gradFor(r2, *p2[i].second),
                                     1e-4f))
            << p1[i].first;
    }
    EXPECT_LT(r2.stored_activation_bytes, r1.stored_activation_bytes);
    EXPECT_GT(r2.recomputed_nodes, 0);
}

TEST(Autograd, PartialCheckpointReducesProfiledActivations)
{
    auto make_profile = [](bool partial_ckpt) {
        auto model = models::buildTinyModel("bert");
        auto sch = core::Schedule::create(model);
        core::Schedule& ffn = (*sch)["encoder.layer.0.ffn"];
        ffn["fc1"].decompose();
        nn::TraceOptions options;
        options.flatten = true;
        ffn.trace({{2, 8, 16}}, options);
        if (partial_ckpt) {
            auto matches = ffn.find(graph::Pattern::chain({"add", "gelu"}));
            ffn.checkpoint(matches.front());
        }
        nn::CostRecorder profiler(2.0);
        {
            nn::CostRecorderGuard guard(&profiler);
            model->call({nn::Value(Tensor::meta({2, 8}))});
        }
        return profiler.takeProfile();
    };
    nn::Profile without = make_profile(false);
    nn::Profile with = make_profile(true);
    sim::MemoryModel mm(2.0, 0, 1);
    EXPECT_LT(mm.activationMemory(with), mm.activationMemory(without));
    EXPECT_GT(with.checkpoint_boundary_bytes, 0);
}

/** One step of `model` under tensorParallel(2, 0, shard_embedding) on
 * DistExecutor, next to its unscheduled copy on one device. */
struct TensorParallelStep
{
    ModulePtr reference;
    GradResult dense;
    std::vector<ModulePtr> replicas;
    std::vector<GradResult> results;
    std::vector<float> interpreted; ///< each rank's eval forward loss
};

TensorParallelStep
runTensorParallelStep(ModulePtr model,
                      const baselines::ScheduleRecipe& recipe, int64_t seq,
                      int64_t vocab)
{
    TensorParallelStep step;
    step.reference = withCrossEntropyLoss(model->clone());
    auto sch = baselines::applyRecipe(model, recipe, seq);
    auto scheduled = runtime::withCrossEntropyLoss(sch->module());

    Tensor ids = Tensor::randint({2, seq}, vocab, 53);
    Tensor targets = Tensor::randint({2, seq}, vocab, 59);

    AutogradEngine ref_engine;
    step.dense = ref_engine.run(*step.reference, {ids, targets});

    DistExecutor executor(2);
    step.replicas = executor.replicate(*scheduled);
    step.results.resize(2);
    step.interpreted.resize(2);
    executor.run(step.replicas, [&](int rank, nn::Module& m, ProcessGroup&) {
        AutogradEngine engine;
        step.results[rank] = engine.run(m, {ids, targets});
        step.interpreted[rank] =
            m.callOne({nn::Value(ids), nn::Value(targets)}).tensor().at(0);
    });
    return step;
}

/** Training runs the forward the interpreter runs: each rank's training
 * loss equals its eval forward loss bit for bit, and the dense loss up
 * to float rounding. */
void
expectTrainingLossMatches(const TensorParallelStep& step)
{
    const float dense = step.dense.outputs[0].at(0);
    for (int r = 0; r < 2; ++r) {
        const float trained = step.results[r].outputs[0].at(0);
        EXPECT_EQ(trained, step.interpreted[r]) << "rank " << r;
        EXPECT_NEAR(trained, dense, 1e-5f) << "rank " << r;
    }
}

TEST(Autograd, TensorParallelTrainingMatchesSingleDevice)
{
    // Full TP schedule on tiny BERT: forward AND backward must match the
    // single-device reference (gradients of a row-parallel weight shard
    // equal the corresponding slice of the dense gradient).
    for (bool shard_embedding : {false, true}) {
        SCOPED_TRACE(shard_embedding ? "shard_embedding" : "dense embedding");
        auto model = models::buildTinyModel("bert");
        model->initializeParams(47);
        TensorParallelStep step = runTensorParallelStep(
            model,
            baselines::ScheduleRecipe::tensorParallel(2, 0.0, shard_embedding),
            8, 64);
        expectTrainingLossMatches(step);

        // Check one sharded gradient: fc2 (row-parallel) of layer 0.
        auto ref_fc2 =
            step.reference->findByPath("model.encoder.layer.0.ffn.fc2");
        Tensor dense_grad =
            AutogradEngine::gradFor(step.dense, ref_fc2->paramTensor("weight"));
        auto rank0_fc2 =
            step.replicas[0]->findByPath("model.encoder.layer.0.ffn.fc2");
        Tensor shard_grad = AutogradEngine::gradFor(
            step.results[0], rank0_fc2->paramTensor("weight"));
        Tensor expected_slice =
            ops::narrow(dense_grad, 1, 0, dense_grad.size(1) / 2);
        EXPECT_TRUE(Tensor::allClose(expected_slice, shard_grad, 1e-3f));
    }
}

TEST(Autograd, TensorParallelTrainingMatchesSingleDeviceMidBert)
{
    // The 2-layer mid BERT, where every row-parallel linear's all-reduce
    // once ran twice in training (once in the child's traced graph, once
    // at its call boundary) and the loss drifted by ~3e-3.
    models::TransformerConfig config =
        models::modelConfig("bert").scaled(256, 2, 4, 2048, 64);
    config.dropout = 0.0;
    for (bool shard_embedding : {false, true}) {
        SCOPED_TRACE(shard_embedding ? "shard_embedding" : "dense embedding");
        auto model = std::make_shared<models::BertModel>(config, "BertModel");
        model->initializeParams(7);
        expectTrainingLossMatches(runTensorParallelStep(
            model,
            baselines::ScheduleRecipe::tensorParallel(2, 0.0, shard_embedding),
            64, 2048));
    }
}

TEST(Autograd, TensorParallelFusedAttentionMatchesDecomposed)
{
    // TP=2 runs the fused op on each rank's local heads, reading the
    // interleaved q, k and v groups of its QKV shard. Each rank's loss and
    // QKV gradients equal those of the same schedule with CoreAttention,
    // which narrows the packed QKV itself, bit for bit.
    for (const char* name : {"bert", "opt"}) {
        SCOPED_TRACE(name);
        auto recipe = baselines::ScheduleRecipe::tensorParallel(2, 0.0);
        auto decomposed_recipe = recipe;
        decomposed_recipe.flash_attention = false;
        auto model = models::buildTinyModel(name);
        model->initializeParams(47);
        TensorParallelStep fused =
            runTensorParallelStep(model->clone(), recipe, 8, 64);
        TensorParallelStep decomposed =
            runTensorParallelStep(model, decomposed_recipe, 8, 64);
        int64_t qkv_params = 0;
        for (int r = 0; r < 2; ++r) {
            const float loss = fused.results[r].outputs[0].at(0);
            const float want = decomposed.results[r].outputs[0].at(0);
            EXPECT_EQ(std::memcmp(&loss, &want, sizeof(float)), 0)
                << "rank " << r << ": " << loss << " vs " << want;
            const auto fused_params = fused.replicas[r]->namedParams();
            const auto ref_params = decomposed.replicas[r]->namedParams();
            ASSERT_EQ(fused_params.size(), ref_params.size());
            for (size_t i = 0; i < fused_params.size(); ++i) {
                if (fused_params[i].first.find(".qkv.") == std::string::npos) {
                    continue;
                }
                ++qkv_params;
                const Tensor got = AutogradEngine::gradFor(
                    fused.results[r], *fused_params[i].second);
                const Tensor expected = AutogradEngine::gradFor(
                    decomposed.results[r], *ref_params[i].second);
                ASSERT_EQ(got.shape(), expected.shape());
                EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                                      got.numel() * sizeof(float)),
                          0)
                    << "rank " << r << " " << fused_params[i].first;
            }
        }
        EXPECT_GT(qkv_params, 0);
    }
}

/** x [2, 3n] -> three narrows of width 16 -> (q + k) * v -> MSE loss. */
class ThreeNarrows : public nn::Module
{
  public:
    explicit ThreeNarrows(int64_t n) : Module("ThreeNarrows"), n_(n) {}

    std::vector<nn::Value>
    forward(const std::vector<nn::Value>& in) override
    {
        nn::Value q = nn::F::narrow(in[0], -1, 0, 16);
        nn::Value k = nn::F::narrow(in[0], -1, n_, 16);
        nn::Value v = nn::F::narrow(in[0], -1, 2 * n_, 16);
        return {nn::F::mseLoss(nn::F::mul(nn::F::add(q, k), v), in[1])};
    }

    ModulePtr
    clone() const override
    {
        auto m = std::make_shared<ThreeNarrows>(n_);
        cloneInto(m.get());
        return m;
    }

  private:
    int64_t n_;
};

TEST(Autograd, NarrowGradientsShareOneBuffer)
{
    // The narrows of one value add into slices of one zero-filled
    // gradient, with the bits of the former zero-filled copies added
    // together (v's first, then k's, then q's).
    const int64_t n = 4096;
    ThreeNarrows model(n);
    Tensor x = Tensor::uniform({2, 3 * n}, 1.0f, 71);
    Tensor t = Tensor::uniform({2, 16}, 1.0f, 72);
    const int64_t allocated0 = obs::metrics().tensor_allocated_bytes.get();
    AutogradEngine engine;
    GradResult result = engine.run(model, {x, t});
    const int64_t allocated =
        obs::metrics().tensor_allocated_bytes.get() - allocated0;

    // The same step with q, k and v as inputs gives their gradients.
    Tensor q = ops::narrow(x, 1, 0, 16);
    Tensor k = ops::narrow(x, 1, n, 16);
    Tensor v = ops::narrow(x, 1, 2 * n, 16);
    Tensor qk = ops::add(q, k);
    Tensor g = ops::mseLossBackward(ops::mul(qk, v), t);
    Tensor gqk = ops::mul(g, v);
    auto scatter = [&](const Tensor& part, int64_t start) {
        Tensor full = Tensor::zeros(x.shape());
        for (int64_t r = 0; r < 2; ++r) {
            for (int64_t j = 0; j < 16; ++j) {
                full.set(r * 3 * n + start + j, part.at(r * 16 + j));
            }
        }
        return full;
    };
    const Tensor expected =
        ops::add(ops::add(scatter(ops::mul(g, qk), 2 * n), scatter(gqk, n)),
                 scatter(gqk, 0));
    const Tensor& got = result.input_grads[0];
    ASSERT_EQ(got.shape(), expected.shape());
    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                          got.numel() * sizeof(float)),
              0);
    // One full-width buffer; everything else is 16 columns wide.
    const int64_t full_bytes =
        alloc::sizeClassFor(x.numel()) * static_cast<int64_t>(sizeof(float));
    EXPECT_GE(allocated, full_bytes);
    EXPECT_LT(allocated, 2 * full_bytes);
}

/** x [2, 8] -> linear -> reshape -> dropout(p = 0) -> MSE loss. */
class ViewChain : public nn::Module
{
  public:
    ViewChain() : Module("ViewChain")
    {
        registerParam("weight", Tensor::meta({4, 8}));
    }

    std::vector<nn::Value>
    forward(const std::vector<nn::Value>& in) override
    {
        nn::Value y = nn::F::linear(in[0], param("weight"), nn::Value());
        y = nn::F::dropout(nn::F::reshape(y, {8}), 0.0, 3);
        return {nn::F::mseLoss(y, in[1])};
    }

    ModulePtr
    clone() const override
    {
        auto m = std::make_shared<ViewChain>();
        cloneInto(m.get());
        return m;
    }
};

TEST(Autograd, StoredActivationBytesCountUniqueStorage)
{
    // The reshape view and the p = 0 dropout share the linear output's
    // storage: only it and the loss are stored.
    ViewChain model;
    model.initializeParams(73);
    AutogradEngine engine;
    GradResult result = engine.run(
        model, {Tensor::uniform({2, 8}, 1.0f, 74), Tensor::zeros({8})});
    EXPECT_EQ(result.stored_activation_bytes, (8 + 1) * 4);
}

TEST(DistExecutor, RowParallelLinearTracedAfterSyncMatchesDense)
{
    // A row-parallel Linear `.trace()`d after its `.sync()`: the sync is
    // not in its graph, so Module::call all-reduces its output once.
    auto model = std::make_shared<nn::Sequential>();
    model->append(std::make_shared<nn::Linear>(8, 16, /*bias=*/true));
    model->append(std::make_shared<nn::Linear>(16, 8, /*bias=*/true));
    model->initializeParams(191);
    ModulePtr reference = model->clone();

    auto sch = core::Schedule::create(model, 2);
    (*sch)["0"].shard(std::vector<std::string>{"weight", "bias"}, 0);
    (*sch)["0"].sync(nn::SyncDirection::Backward);
    (*sch)["1"].shard("weight", 1);
    (*sch)["1"].sync(nn::SyncDirection::Forward);
    (*sch)["1"].trace({{3, 16}});
    EXPECT_FALSE(analysis::lintModule(*model, 2).hasErrors());

    Tensor x = Tensor::uniform({3, 8}, 1.0f, 193);
    Tensor expected = reference->callOne({nn::Value(x)}).tensor();
    DistExecutor executor(2);
    auto outputs = executor.forward(*model, {x});
    for (int r = 0; r < 2; ++r) {
        EXPECT_TRUE(Tensor::allClose(expected, outputs[r][0], 1e-5f))
            << "rank " << r << " max |diff| "
            << Tensor::maxAbsDiff(expected, outputs[r][0]);
    }
}

TEST(Autograd, AllGatherSyncTrainingMatchesDense)
{
    // A column-parallel Linear whose `.sync(forward, all_gather)` runs
    // at its call boundary: backward keeps this rank's slice of the
    // gathered output's gradient before the Linear's own backward.
    auto make = [] {
        auto seq = std::make_shared<nn::Sequential>();
        seq->append(std::make_shared<nn::Linear>(8, 16, /*bias=*/true));
        seq->append(std::make_shared<nn::Linear>(16, 4, /*bias=*/true));
        return seq;
    };
    auto model = make();
    model->initializeParams(197);
    auto reference = withMseLoss(model->clone());
    auto sch = core::Schedule::create(model, 2);
    (*sch)["0"].shard(std::vector<std::string>{"weight", "bias"}, 0);
    (*sch)["0"].sync(nn::SyncDirection::Forward, nn::SyncKind::AllGather,
                     /*axis=*/-1);
    auto scheduled = withMseLoss(model);

    Tensor x = Tensor::uniform({3, 8}, 1.0f, 199);
    Tensor y = Tensor::uniform({3, 4}, 1.0f, 211);
    AutogradEngine ref_engine;
    GradResult dense = ref_engine.run(*reference, {x, y});
    Tensor dense_w0 = AutogradEngine::gradFor(
        dense, reference->findByPath("model.0")->paramTensor("weight"));

    DistExecutor executor(2);
    auto replicas = executor.replicate(*scheduled);
    std::vector<GradResult> results(2);
    executor.run(replicas, [&](int rank, nn::Module& m, ProcessGroup&) {
        AutogradEngine engine;
        results[rank] = engine.run(m, {x, y});
    });
    for (int r = 0; r < 2; ++r) {
        EXPECT_NEAR(results[r].outputs[0].at(0), dense.outputs[0].at(0),
                    1e-6f);
        Tensor shard_w0 = AutogradEngine::gradFor(
            results[r], replicas[r]->findByPath("model.0")->paramTensor("weight"));
        EXPECT_TRUE(Tensor::allClose(ops::narrow(dense_w0, 0, 8 * r, 8),
                                     shard_w0, 1e-6f))
            << "rank " << r;
    }
}

TEST(DistExecutor, VocabParallelHeadMatchesDense)
{
    // A padded, column-sharded LM head (vocab 63, world 2 -> padded 64)
    // must produce exactly the dense head's logits on every rank.
    nn::Linear dense(8, 63, /*bias=*/true);
    dense.initializeParams(171);
    auto head = nn::VocabParallelLinear::fromLinear(dense, 2);

    Tensor x = Tensor::uniform({3, 8}, 1.0f, 173);
    std::vector<nn::Value> vx = {nn::Value(x)};
    Tensor expected = dense.callOne(vx).tensor();

    // Un-sharded (reference mode): padding is transparent.
    Tensor single = head->callOne(vx).tensor();
    EXPECT_EQ(single.shape(), (Shape{3, 63}));
    EXPECT_TRUE(Tensor::allClose(expected, single, 1e-4f));

    // Sharded across two ranks.
    DistExecutor executor(2);
    auto outputs = executor.forward(*head, {x});
    for (int r = 0; r < 2; ++r) {
        EXPECT_EQ(outputs[r][0].shape(), (Shape{3, 63}));
        EXPECT_TRUE(Tensor::allClose(expected, outputs[r][0], 1e-4f));
    }
}

TEST(Autograd, VocabParallelHeadGradientsMatchDense)
{
    auto make = [](nn::ModulePtr head) {
        auto seq = std::make_shared<nn::Sequential>();
        seq->append(std::move(head));
        return withCrossEntropyLoss(seq);
    };
    nn::Linear proto(8, 63, true);
    proto.initializeParams(181);
    auto dense_head = std::static_pointer_cast<nn::Linear>(proto.clone());
    auto parallel_head = nn::VocabParallelLinear::fromLinear(proto, 2);

    auto dense_model = make(dense_head);
    auto parallel_model = make(parallel_head);

    Tensor x = Tensor::uniform({4, 8}, 1.0f, 183);
    Tensor targets = Tensor::randint({4}, 63, 185);

    AutogradEngine e1;
    GradResult dense_result = e1.run(*dense_model, {x, targets});

    DistExecutor executor(2);
    auto replicas = executor.replicate(*parallel_model);
    std::vector<GradResult> results(2);
    executor.run(replicas, [&](int rank, nn::Module& m, ProcessGroup&) {
        AutogradEngine engine;
        results[rank] = engine.run(m, {x, targets});
    });
    EXPECT_NEAR(dense_result.outputs[0].at(0), results[0].outputs[0].at(0),
                1e-4f);
    // Rank 0's weight-shard gradient equals the top half of the dense
    // gradient (padded row 63 contributes nothing).
    Tensor dense_grad = AutogradEngine::gradFor(
        dense_result, dense_model->findByPath("model.0")->paramTensor("weight"));
    Tensor shard_grad = AutogradEngine::gradFor(
        results[0], replicas[0]->findByPath("model.0")->paramTensor("weight"));
    EXPECT_EQ(shard_grad.shape(), (Shape{32, 8}));
    Tensor expected_slice = ops::narrow(dense_grad, 0, 0, 32);
    EXPECT_TRUE(Tensor::allClose(expected_slice, shard_grad, 1e-4f));
    // The head's backward all-reduce (Megatron's "f") sums the vocab
    // slices' shares of the replicated input's gradient on every rank.
    for (int r = 0; r < 2; ++r) {
        EXPECT_TRUE(Tensor::allClose(dense_result.input_grads[0],
                                     results[r].input_grads[0], 1e-6f))
            << "rank " << r << " max |diff| "
            << Tensor::maxAbsDiff(dense_result.input_grads[0],
                                  results[r].input_grads[0]);
    }
}

/** Flattens [b, s, h] to [b * s, h] and projects it: the reshape target
 * comes from the input shape, so a traced graph is only good for one. */
class FlattenLinear : public nn::Module
{
  public:
    FlattenLinear() : Module("FlattenLinear")
    {
        registerParam("weight", Tensor::uniform({4, 4}, 0.5f, 41));
    }

    std::vector<nn::Value>
    forward(const std::vector<nn::Value>& inputs) override
    {
        const Shape& s = inputs[0].shape();
        nn::Value flat = nn::F::reshape(inputs[0], {s[0] * s[1], s[2]});
        return {nn::F::linear(flat, param("weight"), nn::Value())};
    }

    ModulePtr
    clone() const override
    {
        auto m = std::make_shared<FlattenLinear>();
        cloneInto(m.get());
        return m;
    }
};

/** Calls one FlattenLinear child on [2, 3, 4] and then on [2, 5, 4]. */
class TwoShapeParent : public nn::Module
{
  public:
    TwoShapeParent() : Module("TwoShapeParent")
    {
        registerChild("proj", std::make_shared<FlattenLinear>());
    }

    std::vector<nn::Value>
    forward(const std::vector<nn::Value>& inputs) override
    {
        nn::Value short_out = callChildOne("proj", {inputs[0]});
        nn::Value long_out = callChildOne("proj", {inputs[1]});
        return {nn::F::add(nn::F::mseLoss(short_out, inputs[2]),
                           nn::F::mseLoss(long_out, inputs[3]))};
    }

    ModulePtr
    clone() const override
    {
        auto m = std::make_shared<TwoShapeParent>();
        cloneInto(m.get());
        return m;
    }
};

TEST(Autograd, ChildCalledWithTwoShapesGetsAGraphPerShape)
{
    auto model = std::make_shared<TwoShapeParent>();
    const std::vector<Tensor> inputs = {
        Tensor::uniform({2, 3, 4}, 1.0f, 42),
        Tensor::uniform({2, 5, 4}, 1.0f, 43),
        Tensor::uniform({6, 4}, 1.0f, 44),
        Tensor::uniform({10, 4}, 1.0f, 45)};
    auto eager_loss = [&] {
        std::vector<nn::Value> values;
        for (const Tensor& t : inputs) values.emplace_back(t);
        return model->callOne(values).tensor().at(0);
    };

    AutogradEngine engine;
    GradResult result = engine.run(*model, inputs);
    EXPECT_EQ(result.outputs[0].at(0), eager_loss());

    Tensor& w = model->child("proj")->paramTensor("weight");
    const Tensor analytic = AutogradEngine::gradFor(result, w);
    for (int64_t i = 0; i < w.numel(); ++i) {
        const float eps = 1e-3f;
        const float orig = w.at(i);
        w.set(i, orig + eps);
        const float up = eager_loss();
        w.set(i, orig - eps);
        const float down = eager_loss();
        w.set(i, orig);
        EXPECT_NEAR(analytic.at(i), (up - down) / (2 * eps), 5e-3f);
    }
}

/** loss = mse(h, t2) + mse(reshape(h), t1) with h = x W^T: the reshape's
 * gradient, a view of its own slot, reaches h before mse(h)'s does. */
class ReshapeTwoLosses : public nn::Module
{
  public:
    ReshapeTwoLosses() : Module("ReshapeTwoLosses")
    {
        registerParam("weight", Tensor::meta({6, 4}));
    }

    std::vector<nn::Value>
    forward(const std::vector<nn::Value>& inputs) override
    {
        nn::Value h = nn::F::linear(inputs[0], param("weight"), nn::Value());
        nn::Value direct = nn::F::mseLoss(h, inputs[2]);
        nn::Value flat = nn::F::reshape(h, {3, 2, 6});
        return {nn::F::add(nn::F::mseLoss(flat, inputs[1]), direct)};
    }

    ModulePtr
    clone() const override
    {
        auto m = std::make_shared<ReshapeTwoLosses>();
        cloneInto(m.get());
        return m;
    }
};

TEST(Autograd, ReshapeGradientViewMeetsSecondGradient)
{
    // Backward adopts a rule's fresh gradient as a slot's first value and
    // adds later ones into it in place; the reshape's gradient shares its
    // slot's storage, so it must be copied, not adopted.
    auto model = std::make_shared<ReshapeTwoLosses>();
    model->initializeParams(61);
    const std::vector<Tensor> inputs = {Tensor::uniform({6, 4}, 1.0f, 62),
                                        Tensor::uniform({3, 2, 6}, 1.0f, 63),
                                        Tensor::uniform({6, 6}, 1.0f, 64)};
    auto eager_loss = [&] {
        std::vector<nn::Value> values;
        for (const Tensor& t : inputs) values.emplace_back(t);
        return model->callOne(values).tensor().at(0);
    };

    AutogradEngine engine;
    GradResult result = engine.run(*model, inputs);
    EXPECT_EQ(result.outputs[0].at(0), eager_loss());
    Tensor& w = model->paramTensor("weight");
    const Tensor analytic = AutogradEngine::gradFor(result, w);
    for (int64_t i = 0; i < w.numel(); ++i) {
        const float eps = 1e-3f;
        const float orig = w.at(i);
        w.set(i, orig + eps);
        const float up = eager_loss();
        w.set(i, orig - eps);
        const float down = eager_loss();
        w.set(i, orig);
        EXPECT_NEAR(analytic.at(i), (up - down) / (2 * eps), 5e-3f);
    }
}

// --- trainers -------------------------------------------------------------------

TEST(Trainer, GradientAccumulationAveragesMicroBatches)
{
    auto model = withCrossEntropyLoss(models::buildTinyModel("bert"));
    model->initializeParams(101);
    Trainer trainer(model);

    std::vector<std::vector<Tensor>> micros;
    for (int m = 0; m < 3; ++m) {
        micros.push_back({Tensor::randint({1, 8}, 64, 110 + m),
                          Tensor::randint({1, 8}, 64, 120 + m)});
    }
    TrainStepStats first = trainer.step(micros);
    EXPECT_EQ(first.micro_batches, 3);
    EXPECT_GT(first.loss, 0);
    // Training progresses across steps on the same data.
    TrainStepStats later = first;
    for (int s = 0; s < 5; ++s) {
        later = trainer.step(micros);
    }
    EXPECT_LT(later.loss, first.loss);
}

TEST(Trainer, LearnsSyntheticMlmTask)
{
    // End-to-end integration: a *scheduled* BERT trained on the MLM
    // workload generator must reduce its loss on fresh batches.
    auto inner = models::buildTinyModel("bert");
    auto sch = baselines::applyRecipe(
        inner, baselines::ScheduleRecipe::kernelOptimized());
    (void)sch; // schedule applied in place
    auto model = withCrossEntropyLoss(inner);
    model->initializeParams(161);

    AdamWConfig config;
    config.lr = 1e-2f;
    Trainer trainer(model, config);
    models::SyntheticDataset data("MLM", 64, 8, 3);

    double first_window = 0;
    double last_window = 0;
    const int steps = 12;
    for (int s = 0; s < steps; ++s) {
        models::Batch batch = data.batch(2, s % 4); // cycle 4 batches
        TrainStepStats stats = trainer.step({batch.withTargets()});
        if (s < 3) first_window += stats.loss;
        if (s >= steps - 3) last_window += stats.loss;
    }
    EXPECT_LT(last_window, first_window);
}

TEST(Trainer, RejectsMetaParameters)
{
    auto model = withCrossEntropyLoss(models::buildTinyModel("bert"));
    EXPECT_THROW(Trainer trainer(model), SlapoError);
}

TEST(DataParallelTrainer, MatchesSingleProcessAccumulation)
{
    // DP over 2 ranks with per-rank micro-batches must produce exactly
    // the same parameters as one process accumulating both micro-batches.
    auto build = [] {
        auto m = withCrossEntropyLoss(models::buildTinyModel("bert"));
        m->initializeParams(131);
        return m;
    };
    auto reference_model = build();
    auto dp_model = build();

    AdamWConfig config;
    config.lr = 1e-2f;
    Trainer reference(reference_model, config);
    DataParallelTrainer dp(*dp_model, 2, config);

    std::vector<std::vector<Tensor>> micros = {
        {Tensor::randint({1, 8}, 64, 141), Tensor::randint({1, 8}, 64, 142)},
        {Tensor::randint({1, 8}, 64, 143), Tensor::randint({1, 8}, 64, 144)},
    };
    for (int s = 0; s < 3; ++s) {
        TrainStepStats ref_stats = reference.step(micros);
        TrainStepStats dp_stats = dp.step(micros);
        EXPECT_NEAR(ref_stats.loss, dp_stats.loss, 1e-5);
    }
    // Replicas stayed synchronized and match the single-process weights.
    auto ref_params = reference_model->namedParams();
    for (int rank = 0; rank < 2; ++rank) {
        auto rank_params = dp.replica(rank).namedParams();
        ASSERT_EQ(rank_params.size(), ref_params.size());
        for (size_t i = 0; i < ref_params.size(); ++i) {
            EXPECT_TRUE(Tensor::allClose(*ref_params[i].second,
                                         *rank_params[i].second, 1e-4f))
                << "rank " << rank << " param " << ref_params[i].first;
        }
    }
}

TEST(DataParallelTrainer, RejectsTensorParallelShards)
{
    auto model = models::buildTinyModel("bert");
    model->initializeParams(151);
    auto sch = baselines::applyRecipe(
        model, baselines::ScheduleRecipe::tensorParallel(2, 0.0));
    auto loss_model = withCrossEntropyLoss(sch->module());
    EXPECT_THROW(DataParallelTrainer trainer(*loss_model, 2), SlapoError);
}

} // namespace
} // namespace runtime
} // namespace slapo
