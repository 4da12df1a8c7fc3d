/**
 * @file
 * Tests of the parallel blocked kernel backend: the thread pool itself
 * (partitioning, exception propagation) and the determinism contract —
 * every kernel must produce bit-identical results at any thread count,
 * because chunk boundaries are a function of the problem shape only, and
 * on every ISA path the CPU can run (tensor/kernels.h).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/registry.h"
#include "nn/layers.h"
#include "runtime/trainer.h"
#include "support/parallel.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "tensor/tensor.h"

namespace slapo {
namespace {

/** Restore the default thread count even when a test fails mid-way. */
struct ThreadGuard
{
    ~ThreadGuard() { setNumThreads(0); }
};

float
maxAbsDiff(const Tensor& a, const Tensor& b)
{
    EXPECT_EQ(a.shape(), b.shape());
    float worst = 0.0f;
    const float* pa = a.data();
    const float* pb = b.data();
    for (int64_t i = 0; i < a.numel(); ++i) {
        worst = std::max(worst, std::abs(pa[i] - pb[i]));
    }
    return worst;
}

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    ThreadGuard guard;
    for (int threads : {1, 3}) {
        setNumThreads(threads);
        std::vector<std::atomic<int>> hits(1000);
        support::parallelFor(0, 1000, 64, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
                hits[i].fetch_add(1);
            }
        });
        for (int64_t i = 0; i < 1000; ++i) {
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at "
                                         << threads << " threads";
        }
    }
}

TEST(ParallelFor, ChunkBoundariesIgnoreThreadCount)
{
    // The determinism contract: chunking is (begin, end, grain) only.
    EXPECT_EQ(support::chunkCountFor(0, 1000, 64), (1000 + 63) / 64);
    EXPECT_EQ(support::chunkCountFor(0, 0, 64), 0);
    EXPECT_EQ(support::chunkCountFor(5, 6, 64), 1);
}

TEST(ParallelFor, PropagatesExceptions)
{
    ThreadGuard guard;
    for (int threads : {1, 4}) {
        setNumThreads(threads);
        EXPECT_THROW(
            support::parallelFor(0, 256, 1,
                                 [&](int64_t lo, int64_t) {
                                     if (lo >= 128) {
                                         throw std::runtime_error("boom");
                                     }
                                 }),
            std::runtime_error);
        // The pool must stay usable after an exception.
        std::atomic<int64_t> sum{0};
        support::parallelFor(0, 100, 10, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
                sum.fetch_add(i);
            }
        });
        EXPECT_EQ(sum.load(), 99 * 100 / 2);
    }
}

TEST(ParallelFor, NestedCallsRunInline)
{
    ThreadGuard guard;
    setNumThreads(4);
    std::atomic<int> outer_chunks{0};
    support::parallelFor(0, 8, 1, [&](int64_t, int64_t) {
        outer_chunks.fetch_add(1);
        EXPECT_TRUE(support::inParallelRegion());
        // A kernel calling a kernel must not deadlock the pool.
        std::atomic<int64_t> inner_sum{0};
        support::parallelFor(0, 16, 4, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
                inner_sum.fetch_add(i);
            }
        });
        EXPECT_EQ(inner_sum.load(), 15 * 16 / 2);
    });
    EXPECT_EQ(outer_chunks.load(), 8);
    EXPECT_FALSE(support::inParallelRegion());
}

TEST(ParallelThreads, SetAndGet)
{
    ThreadGuard guard;
    setNumThreads(7);
    EXPECT_EQ(getNumThreads(), 7);
    setNumThreads(0);
    EXPECT_GE(getNumThreads(), 1);
}

/** Restore the default kernel path even when a test fails mid-way. */
struct IsaGuard
{
    kernels::Isa saved = kernels::kernels().isa;
    ~IsaGuard() { kernels::setIsaForTesting(saved); }
};

/** The ISA paths this CPU can run, baseline first. */
std::vector<kernels::Isa>
availableIsas()
{
    std::vector<kernels::Isa> isas;
    for (kernels::Isa isa : {kernels::Isa::X86_64, kernels::Isa::X86_64_V3,
                             kernels::Isa::X86_64_V4}) {
        if (kernels::cpuSupports(isa)) isas.push_back(isa);
    }
    return isas;
}

/** Same shape and the same bytes: +0/-0 and NaN payloads count too. */
bool
sameBits(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/** Run `fn` on every ISA path the CPU supports, each at 1/2/7 threads,
 * and require outputs bit-identical to the baseline path at 1 thread. */
void
expectBitIdentical(const std::function<std::vector<Tensor>()>& fn)
{
    ThreadGuard guard;
    IsaGuard isa_guard;
    kernels::setIsaForTesting(kernels::Isa::X86_64);
    setNumThreads(1);
    std::vector<Tensor> reference = fn();
    std::string ran;
    for (kernels::Isa isa : availableIsas()) {
        kernels::setIsaForTesting(isa);
        ran += (ran.empty() ? "" : ", ") + std::string(kernels::isaName(isa));
        for (int threads : {1, 2, 7}) {
            setNumThreads(threads);
            std::vector<Tensor> got = fn();
            ASSERT_EQ(got.size(), reference.size());
            for (size_t i = 0; i < got.size(); ++i) {
                EXPECT_TRUE(sameBits(reference[i], got[i]))
                    << "output " << i << " on " << kernels::isaName(isa)
                    << " at " << threads << " threads differs by up to "
                    << maxAbsDiff(reference[i], got[i]);
            }
        }
    }
    std::printf("ISA paths compared: %s\n", ran.c_str());
}

TEST(IsaDispatch, DefaultIsWidestSupportedPath)
{
    ASSERT_TRUE(kernels::cpuSupports(kernels::Isa::X86_64));
    const std::vector<kernels::Isa> isas = availableIsas();
    EXPECT_EQ(kernels::kernels().isa, isas.back());
    IsaGuard isa_guard;
    for (kernels::Isa isa : {kernels::Isa::X86_64, kernels::Isa::X86_64_V3,
                             kernels::Isa::X86_64_V4}) {
        if (kernels::cpuSupports(isa)) {
            kernels::setIsaForTesting(isa);
            EXPECT_EQ(kernels::kernels().isa, isa);
        } else {
            EXPECT_THROW(kernels::setIsaForTesting(isa), SlapoError);
        }
        std::printf("%s: %s\n", kernels::isaName(isa),
                    kernels::cpuSupports(isa) ? "available" : "unsupported");
    }
}

TEST(ParallelDeterminism, Matmul)
{
    Tensor a = Tensor::uniform({3, 37, 53}, 1.0f, 1);
    Tensor b = Tensor::uniform({3, 53, 41}, 1.0f, 2);
    expectBitIdentical([&] {
        return std::vector<Tensor>{ops::matmul(a, b)};
    });
}

TEST(ParallelDeterminism, LinearForwardBackward)
{
    Tensor x = Tensor::uniform({2, 19, 64}, 1.0f, 3);
    Tensor w = Tensor::uniform({48, 64}, 0.2f, 4);
    Tensor bias = Tensor::uniform({48}, 0.2f, 5);
    Tensor g = Tensor::uniform({2, 19, 48}, 1.0f, 6);
    expectBitIdentical([&] {
        Tensor y = ops::linear(x, w, bias);
        ops::LinearGrads grads = ops::linearBackward(g, x, w, true);
        return std::vector<Tensor>{y, grads.grad_x, grads.grad_weight,
                                   grads.grad_bias};
    });
}

TEST(ParallelDeterminism, SoftmaxForwardBackward)
{
    Tensor x = Tensor::uniform({4, 7, 33, 33}, 2.0f, 7);
    Tensor g = Tensor::uniform({4, 7, 33, 33}, 1.0f, 8);
    expectBitIdentical([&] {
        Tensor y = ops::softmax(x);
        return std::vector<Tensor>{y, ops::softmaxBackward(g, y)};
    });
}

TEST(ParallelDeterminism, LayerNormForwardBackward)
{
    Tensor x = Tensor::uniform({31, 257}, 1.0f, 9);
    Tensor gamma = Tensor::uniform({257}, 0.5f, 10);
    Tensor beta = Tensor::uniform({257}, 0.5f, 11);
    Tensor g = Tensor::uniform({31, 257}, 1.0f, 12);
    expectBitIdentical([&] {
        Tensor y = ops::layerNorm(x, gamma, beta, 1e-5f);
        ops::LayerNormGrads grads =
            ops::layerNormBackward(g, x, gamma, 1e-5f);
        return std::vector<Tensor>{y, grads.grad_x, grads.grad_gamma,
                                   grads.grad_beta};
    });
}

TEST(ParallelDeterminism, ElementwiseAndReduce)
{
    Tensor a = Tensor::uniform({5, 64, 33}, 1.0f, 13);
    Tensor b = Tensor::uniform({5, 64, 33}, 1.0f, 14);
    Tensor row = Tensor::uniform({33}, 1.0f, 15);
    expectBitIdentical([&] {
        return std::vector<Tensor>{
            ops::add(a, b),
            ops::mul(a, row),
            ops::gelu(a),
            ops::reduceToShape(a, {33}),
            ops::reduceToShape(a, {5, 64, 1}),
        };
    });
}

TEST(ParallelDeterminism, AdamWSteps)
{
    // Larger than one AdamW chunk, so 2 and 7 threads really split it.
    const Tensor p0 = Tensor::uniform({130, 257}, 1.0f, 23);
    const Tensor b0 = Tensor::uniform({7}, 1.0f, 24);
    const std::vector<Tensor> grads[2] = {
        {Tensor::uniform({130, 257}, 0.1f, 25), Tensor::uniform({7}, 0.1f, 26)},
        {Tensor::uniform({130, 257}, 0.1f, 27), Tensor::uniform({7}, 0.1f, 28)},
    };
    AdamWConfig config;
    config.lr = 1e-2f;
    auto run = [&] {
        AdamW opt(config);
        opt.addParam(p0.clone());
        opt.addParam(b0.clone());
        for (int step = 0; step < 3; ++step) opt.step(grads[step % 2]);
        return std::vector<Tensor>{opt.param(0), opt.param(1),
                                   opt.moment1(0), opt.moment2(0)};
    };
    expectBitIdentical(run);

    // The vectorized update rounds exactly like the scalar reference loop.
    Tensor p = p0.clone();
    Tensor m = Tensor::zeros(p.shape());
    Tensor v = Tensor::zeros(p.shape());
    for (int step = 1; step <= 3; ++step) {
        const float t = static_cast<float>(step);
        const float bc1 = 1.0f - std::pow(config.beta1, t);
        const float bc2 = 1.0f - std::pow(config.beta2, t);
        const float* pg = grads[(step - 1) % 2][0].data();
        float* pp = p.data();
        float* pm = m.data();
        float* pv = v.data();
        for (int64_t j = 0; j < p.numel(); ++j) {
            pm[j] = config.beta1 * pm[j] + (1.0f - config.beta1) * pg[j];
            pv[j] = config.beta2 * pv[j] +
                    (1.0f - config.beta2) * pg[j] * pg[j];
            const float m_hat = pm[j] / bc1;
            const float v_hat = pv[j] / bc2;
            pp[j] -= config.lr * (m_hat / (std::sqrt(v_hat) + config.eps) +
                                  config.weight_decay * pp[j]);
        }
    }
    const std::vector<Tensor> got = run();
    EXPECT_TRUE(sameBits(got[0], p));
    EXPECT_TRUE(sameBits(got[2], m));
    EXPECT_TRUE(sameBits(got[3], v));
}

TEST(ParallelDeterminism, Permute4DMatchesNaiveIndexLoop)
{
    const Tensor a = Tensor::uniform({3, 5, 4, 7}, 1.0f, 29);
    const std::vector<std::vector<int64_t>> perms = {
        {0, 1, 2, 3}, {0, 2, 1, 3}, {3, 1, 0, 2}, {2, 3, 1, 0}};
    for (const auto& perm : perms) {
        const Tensor y = ops::permute(a, perm);
        ASSERT_EQ(y.dim(), 4);
        const float* pa = a.data();
        const float* py = y.data();
        int64_t flat = 0;
        int64_t o[4];
        for (o[0] = 0; o[0] < y.size(0); ++o[0]) {
            for (o[1] = 0; o[1] < y.size(1); ++o[1]) {
                for (o[2] = 0; o[2] < y.size(2); ++o[2]) {
                    for (o[3] = 0; o[3] < y.size(3); ++o[3]) {
                        int64_t in[4];
                        for (int d = 0; d < 4; ++d) in[perm[d]] = o[d];
                        const int64_t src =
                            ((in[0] * a.size(1) + in[1]) * a.size(2) + in[2]) *
                                a.size(3) +
                            in[3];
                        ASSERT_EQ(py[flat++], pa[src])
                            << "perm " << perm[0] << perm[1] << perm[2]
                            << perm[3] << " at output " << flat - 1;
                    }
                }
            }
        }
    }
    const Tensor empty = ops::permute(Tensor::zeros({2, 0, 3}), {2, 0, 1});
    EXPECT_EQ(empty.shape(), (Shape{3, 2, 0}));
    expectBitIdentical([&] {
        return std::vector<Tensor>{ops::permute(a, {3, 1, 0, 2}),
                                   ops::transposeLast2(a)};
    });
}

TEST(ParallelDeterminism, TinyBertTrainerStep)
{
    // One full training step (forward, backward, AdamW) through every
    // dispatched kernel. A fresh model per run: stepping mutates it.
    expectBitIdentical([] {
        auto model =
            runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
        model->initializeParams(42);
        runtime::Trainer trainer(model);
        const runtime::TrainStepStats stats = trainer.step(
            {{Tensor::randint({2, 8}, 64, 100),
              Tensor::randint({2, 8}, 64, 200)}});
        std::vector<Tensor> out = {
            Tensor::fromValues({1}, {static_cast<float>(stats.loss)})};
        for (auto& [name, tensor] : model->namedParams()) {
            out.push_back(tensor->clone());
        }
        return out;
    });
}

TEST(BroadcastPaths, FastPathMatchesStridedPath)
{
    // The same-shape fast path and the generic strided walk must agree
    // bit-for-bit: materialize the broadcast operand and compare.
    Tensor a = Tensor::uniform({6, 32, 17}, 1.0f, 16);
    Tensor row = Tensor::uniform({17}, 1.0f, 17);
    Tensor tiled = Tensor::zeros({6, 32, 17});
    float* pt = tiled.data();
    const float* pr = row.data();
    for (int64_t i = 0; i < tiled.numel(); ++i) {
        pt[i] = pr[i % 17];
    }
    EXPECT_EQ(maxAbsDiff(ops::add(a, row), ops::add(a, tiled)), 0.0f);
    EXPECT_EQ(maxAbsDiff(ops::mul(a, row), ops::mul(a, tiled)), 0.0f);
}

TEST(BroadcastPaths, ScalarOperandMatchesStridedPath)
{
    Tensor a = Tensor::uniform({4, 9, 13}, 1.0f, 18);
    Tensor scalar = Tensor::full({1}, 1.375f);
    Tensor tiled = Tensor::full({4, 9, 13}, 1.375f);
    EXPECT_EQ(maxAbsDiff(ops::add(a, scalar), ops::add(a, tiled)), 0.0f);
    EXPECT_EQ(maxAbsDiff(ops::sub(scalar, a), ops::sub(tiled, a)), 0.0f);
}

TEST(AccumulationPrecision, LinearMatchesMatmulComposition)
{
    // Satellite check for the unified float accumulation: the fused
    // linear and the composed matmul(x, W^T)+b run through the same
    // blocked microkernel and must agree to float tolerance.
    Tensor x = Tensor::uniform({8, 96, 128}, 1.0f, 19);
    Tensor w = Tensor::uniform({64, 128}, 0.1f, 20);
    Tensor bias = Tensor::uniform({64}, 0.1f, 21);
    Tensor fused = ops::linear(x, w, bias);
    Tensor composed =
        ops::add(ops::matmul(x, ops::transposeLast2(w)), bias);
    EXPECT_LE(maxAbsDiff(fused, composed), 1e-5f);
}

TEST(ParallelDeterminism, GlobalGradNormBitwiseStableAcrossThreadCounts)
{
    // The run log's global grad norm (TrainStepStats::grad_norm) is a
    // sequential double accumulation over the averaged gradients, so the
    // determinism contract extends to it: bit-identical at any kernel
    // thread count. A fresh model per run — stepping mutates parameters.
    ThreadGuard guard;
    auto run_one_step = [] {
        auto model =
            runtime::withCrossEntropyLoss(models::buildTinyModel("bert"));
        model->initializeParams(42);
        runtime::Trainer trainer(model);
        const std::vector<std::vector<Tensor>> micros = {
            {Tensor::randint({2, 8}, 64, 100),
             Tensor::randint({2, 8}, 64, 200)},
            {Tensor::randint({2, 8}, 64, 300),
             Tensor::randint({2, 8}, 64, 400)},
        };
        return trainer.step(micros).grad_norm;
    };
    setNumThreads(1);
    const double reference = run_one_step();
    EXPECT_TRUE(std::isfinite(reference));
    EXPECT_GT(reference, 0.0);
    for (int threads : {2, 7}) {
        setNumThreads(threads);
        const double got = run_one_step();
        EXPECT_EQ(std::memcmp(&reference, &got, sizeof(double)), 0)
            << "grad norm " << got << " != " << reference << " at "
            << threads << " threads";
    }
}

} // namespace
} // namespace slapo
