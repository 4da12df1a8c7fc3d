/** @file Tests of the caching tensor allocator (tensor/alloc.h) and the
 * static memory planner (graph/memplan.h): size-class rounding, pool
 * round-trips, zero steady-state tensor-storage heap allocations in a
 * warm training loop (counter-asserted), plan caching / invalidation /
 * determinism, and bit-exact losses with the pool and planner on or off
 * at 1/2/4 kernel threads. */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "graph/memplan.h"
#include "models/dataset.h"
#include "models/registry.h"
#include "nn/interpreter.h"
#include "nn/layers.h"
#include "obs/metrics.h"
#include "runtime/autograd.h"
#include "runtime/trainer.h"
#include "support/parallel.h"
#include "tensor/alloc.h"
#include "tensor/ops.h"

namespace slapo {
namespace {

/** Restore the default allocator / planner / thread configuration no
 * matter what a test toggled. */
class AllocTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        alloc::setMode(alloc::Mode::Pool);
        graph::setMemPlanEnabled(true);
        alloc::clearPool();
    }

    void
    TearDown() override
    {
        alloc::setMode(alloc::Mode::Pool);
        graph::setMemPlanEnabled(true);
        setNumThreads(0);
        alloc::clearPool();
    }
};

/** x -> scale -> gelu -> add(x) -> out; gelu and add are in-place
 * candidates (their input 0 dies at them), scale is not (x lives on). */
std::shared_ptr<graph::Graph>
buildChainGraph()
{
    using graph::NodeKind;
    auto g = std::make_shared<graph::Graph>();
    graph::Node* x = g->createNode(NodeKind::Placeholder, "x");
    x->setShapes({{2, 4}});
    graph::Node* s = g->createNode(NodeKind::CallOp, "scale");
    s->setOp(graph::OpKind::Scale);
    s->setAttr("factor", 2.0);
    s->addInput(x);
    s->setShapes({{2, 4}});
    graph::Node* ge = g->createNode(NodeKind::CallOp, "gelu");
    ge->setOp(graph::OpKind::Gelu);
    ge->addInput(s);
    ge->setShapes({{2, 4}});
    graph::Node* add = g->createNode(NodeKind::CallOp, "add");
    add->setOp(graph::OpKind::Add);
    add->addInput(ge);
    add->addInput(x);
    add->setShapes({{2, 4}});
    graph::Node* out = g->createNode(NodeKind::Output, "out");
    out->addInput(add);
    out->setShapes({{2, 4}});
    g->setOutputNode(out);
    return g;
}

bool
bitwiseEqual(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST_F(AllocTest, SizeClassRounding)
{
    EXPECT_EQ(alloc::sizeClassFor(1), alloc::kMinClassElems);
    EXPECT_EQ(alloc::sizeClassFor(64), 64);
    EXPECT_EQ(alloc::sizeClassFor(65), 128);
    EXPECT_EQ(alloc::sizeClassFor(128), 128);
    EXPECT_EQ(alloc::sizeClassFor(1000), 1024);
}

TEST_F(AllocTest, PoolRoundTripServesFromFreeList)
{
    int64_t cap = 0;
    float* p = alloc::acquire(100, &cap);
    EXPECT_EQ(cap, 128);
    alloc::release(p, cap);
    EXPECT_EQ(alloc::pooledBytes(),
              cap * static_cast<int64_t>(sizeof(float)));

    const int64_t hits0 = obs::metrics().alloc_pool_hits.get();
    const int64_t reuse0 = obs::metrics().alloc_reuse_bytes.get();
    int64_t cap2 = 0;
    float* q = alloc::acquire(128, &cap2); // same size class
    EXPECT_EQ(q, p); // LIFO free list hands the parked buffer back
    EXPECT_EQ(cap2, cap);
    EXPECT_EQ(obs::metrics().alloc_pool_hits.get(), hits0 + 1);
    EXPECT_EQ(obs::metrics().alloc_reuse_bytes.get(),
              reuse0 + cap * static_cast<int64_t>(sizeof(float)));
    EXPECT_EQ(alloc::pooledBytes(), 0);
    alloc::release(q, cap2);
    alloc::clearPool();
    EXPECT_EQ(alloc::pooledBytes(), 0);
}

TEST_F(AllocTest, MallocModeBypassesPool)
{
    alloc::setMode(alloc::Mode::Malloc);
    const int64_t misses0 = obs::metrics().alloc_pool_misses.get();
    int64_t cap = 0;
    float* p = alloc::acquire(10, &cap);
    EXPECT_EQ(obs::metrics().alloc_pool_misses.get(), misses0 + 1);
    alloc::release(p, cap);
    EXPECT_EQ(alloc::pooledBytes(), 0); // freed, not parked
}

TEST_F(AllocTest, DroppedTensorStorageParksInPool)
{
    alloc::clearPool();
    {
        Tensor t = Tensor::zeros({32, 32}); // exactly the 1024 class
        EXPECT_EQ(alloc::pooledBytes(), 0);
    }
    EXPECT_EQ(alloc::pooledBytes(), 1024 * static_cast<int64_t>(sizeof(float)));
    alloc::clearPool();
}

TEST_F(AllocTest, ScratchDrawsFromAndReturnsToPool)
{
    alloc::clearPool();
    {
        alloc::Scratch s(200);
        ASSERT_NE(s.data(), nullptr);
        s.data()[0] = 1.0f;
        s.data()[199] = 2.0f;
        EXPECT_EQ(alloc::pooledBytes(), 0);
    }
    EXPECT_EQ(alloc::pooledBytes(), 256 * static_cast<int64_t>(sizeof(float)));
    alloc::clearPool();
}

TEST_F(AllocTest, MemPlanCachedPerShapeAndInvalidatedOnMutation)
{
    auto g = buildChainGraph();
    const std::vector<Shape> shapes = {{2, 4}};

    auto p1 = graph::memPlanFor(*g, shapes);
    auto p2 = graph::memPlanFor(*g, shapes);
    EXPECT_EQ(p1.get(), p2.get()); // second lookup served from the cache

    // A different input signature gets its own plan.
    auto p3 = graph::memPlanFor(*g, {{4, 4}});
    EXPECT_NE(p3.get(), p1.get());

    // Any schedule mutation bumps the graph version and invalidates.
    const uint64_t v0 = g->version();
    graph::Node* dead = g->createNode(graph::NodeKind::CallOp, "dead");
    dead->setOp(graph::OpKind::Identity);
    dead->setShapes({{2, 4}});
    EXPECT_GT(g->version(), v0);
    auto p4 = graph::memPlanFor(*g, shapes);
    EXPECT_NE(p4.get(), p1.get());
}

TEST_F(AllocTest, MemPlanBuildIsDeterministic)
{
    auto g = buildChainGraph();
    const std::vector<Shape> shapes = {{2, 4}};
    auto a = graph::buildMemPlan(*g, shapes);
    auto b = graph::buildMemPlan(*g, shapes);
    ASSERT_EQ(a->actions.size(), b->actions.size());
    for (size_t i = 0; i < a->actions.size(); ++i) {
        EXPECT_EQ(a->actions[i].release_after, b->actions[i].release_after);
        EXPECT_EQ(a->actions[i].inplace, b->actions[i].inplace);
    }
    // The expected liveness for the chain: scale keeps x alive (second
    // use at add) so it is out-of-place; gelu and add consume their
    // input 0's last use and are in-place candidates.
    const auto nodes = g->nodes();
    EXPECT_FALSE(a->at(nodes[1]->id())->inplace); // scale
    EXPECT_TRUE(a->at(nodes[2]->id())->inplace);  // gelu
    EXPECT_TRUE(a->at(nodes[3]->id())->inplace);  // add
}

TEST_F(AllocTest, InterpreterPlannerOnOffBitIdentical)
{
    auto g = buildChainGraph();
    Tensor x = Tensor::fromValues(
        {2, 4}, {-1.5f, -0.25f, 0.0f, 0.75f, 1.0f, 2.5f, -3.0f, 0.125f});
    Tensor x_before = x.clone();

    graph::setMemPlanEnabled(true);
    auto on = nn::interpretGraph(*g, {nn::Value(x)});
    // The caller still holds x, so the executor's storage-unique guard
    // must have kept every in-place rewrite off x's actual buffer.
    EXPECT_TRUE(bitwiseEqual(x, x_before));

    graph::setMemPlanEnabled(false);
    auto off = nn::interpretGraph(*g, {nn::Value(x)});

    ASSERT_EQ(on.size(), off.size());
    ASSERT_EQ(on.size(), 1u);
    EXPECT_TRUE(bitwiseEqual(on[0].tensor(), off[0].tensor()));
}

TEST_F(AllocTest, ZeroDropoutAliasIsNeverOverwrittenInPlace)
{
    // x -> dropout(p = 0) -> gelu -> out. The dropout returns x's own
    // storage and dies at gelu, which the planner marks in place; the
    // storage-unique guard must see the caller's handle on x and run gelu
    // out of place.
    using graph::NodeKind;
    graph::Graph g;
    graph::Node* x = g.createNode(NodeKind::Placeholder, "x");
    x->setShapes({{2, 4}});
    graph::Node* drop = g.createNode(NodeKind::CallOp, "dropout");
    drop->setOp(graph::OpKind::Dropout);
    drop->setAttr("p", 0.0);
    drop->setAttr("seed", int64_t{5});
    drop->addInput(x);
    drop->setShapes({{2, 4}});
    graph::Node* gelu = g.createNode(NodeKind::CallOp, "gelu");
    gelu->setOp(graph::OpKind::Gelu);
    gelu->addInput(drop);
    gelu->setShapes({{2, 4}});
    graph::Node* out = g.createNode(NodeKind::Output, "out");
    out->addInput(gelu);
    out->setShapes({{2, 4}});
    g.setOutputNode(out);
    ASSERT_TRUE(graph::memPlanFor(g, {{2, 4}})->at(gelu->id())->inplace);

    Tensor input = Tensor::uniform({2, 4}, 2.0f, 11);
    const Tensor before = input.clone();
    auto result = nn::interpretGraph(g, {nn::Value(input)});
    EXPECT_TRUE(bitwiseEqual(input, before));
    EXPECT_TRUE(bitwiseEqual(result[0].tensor(), ops::gelu(before)));
    EXPECT_EQ(ops::dropout(input, 0.0f, 5).storageKey(), input.storageKey());
}

TEST_F(AllocTest, TrainingStepHasZeroSteadyStateHeapAllocs)
{
    // The acceptance bar of the allocator: a steady-state training step
    // re-allocates exactly the shapes the previous step released, so
    // after warm-up every tensor-storage request is a pool hit and the
    // heap is never touched (pool_misses stays flat).
    auto model =
        runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
    model->initializeParams(7);
    AdamWConfig config;
    config.lr = 1e-3f;
    runtime::Trainer trainer(model, config);
    models::SyntheticDataset data("MLM", 64, 8, 3);

    for (int s = 0; s < 2; ++s) { // warm-up: populate the free lists
        models::Batch batch = data.batch(2, 0);
        trainer.step({batch.withTargets()});
    }
    const int64_t misses0 = obs::metrics().alloc_pool_misses.get();
    const int64_t hits0 = obs::metrics().alloc_pool_hits.get();
    models::Batch batch = data.batch(2, 0);
    trainer.step({batch.withTargets()});
    EXPECT_EQ(obs::metrics().alloc_pool_misses.get(), misses0)
        << "steady-state step touched the heap for tensor storage";
    EXPECT_GT(obs::metrics().alloc_pool_hits.get(), hits0);
}

TEST_F(AllocTest, LossesBitExactPoolVsMallocPlannerOnOffAcrossThreads)
{
    // The whole-substrate determinism contract: allocator backend,
    // memory planner, and kernel thread count are all numerically
    // invisible — three training steps produce bit-identical losses
    // under every combination.
    auto run = [](bool pool, bool plan, int threads) {
        alloc::setMode(pool ? alloc::Mode::Pool : alloc::Mode::Malloc);
        graph::setMemPlanEnabled(plan);
        setNumThreads(threads);
        auto model =
            runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
        model->initializeParams(17);
        AdamWConfig config;
        config.lr = 1e-2f;
        runtime::Trainer trainer(model, config);
        models::SyntheticDataset data("MLM", 64, 8, 3);
        std::vector<double> losses;
        for (int s = 0; s < 3; ++s) {
            models::Batch batch = data.batch(2, s % 2);
            losses.push_back(trainer.step({batch.withTargets()}).loss);
        }
        return losses;
    };

    const std::vector<double> ref = run(true, true, 1);
    ASSERT_EQ(ref.size(), 3u);
    for (int threads : {1, 2, 4}) {
        for (bool pool : {true, false}) {
            for (bool plan : {true, false}) {
                const std::vector<double> got = run(pool, plan, threads);
                ASSERT_EQ(got.size(), ref.size());
                for (size_t i = 0; i < ref.size(); ++i) {
                    EXPECT_EQ(got[i], ref[i])
                        << "step " << i << " pool=" << pool
                        << " plan=" << plan << " threads=" << threads;
                }
            }
        }
    }
}

} // namespace
} // namespace slapo
