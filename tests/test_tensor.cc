/** @file Unit tests of the tensor substrate (shapes, kernels, autograd math). */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/ops.h"
#include "tensor/optim.h"
#include "tensor/tensor.h"

namespace slapo {
namespace {

TEST(Shape, NumelAndToString)
{
    EXPECT_EQ(numelOf({2, 3, 4}), 24);
    EXPECT_EQ(numelOf({}), 1);
    EXPECT_EQ(shapeToString({2, 3}), "[2, 3]");
}

TEST(Shape, Broadcast)
{
    EXPECT_EQ(broadcastShapes({2, 3}, {3}), (Shape{2, 3}));
    EXPECT_EQ(broadcastShapes({4, 1, 3}, {2, 1}), (Shape{4, 2, 3}));
    EXPECT_THROW(broadcastShapes({2, 3}, {4}), SlapoError);
}

TEST(Tensor, MetaHasNoStorage)
{
    Tensor t = Tensor::meta({8, 8});
    EXPECT_TRUE(t.isMeta());
    EXPECT_EQ(t.numel(), 64);
    EXPECT_THROW(t.data(), SlapoError);
}

TEST(Tensor, MaterializeZeros)
{
    Tensor t = Tensor::meta({4});
    t.materializeZeros();
    EXPECT_TRUE(t.materialized());
    EXPECT_FLOAT_EQ(t.at(0), 0.0f);
}

TEST(Tensor, CloneIsDeep)
{
    Tensor a = Tensor::full({2}, 3.0f);
    Tensor b = a.clone();
    b.set(0, 7.0f);
    EXPECT_FLOAT_EQ(a.at(0), 3.0f);
}

TEST(Tensor, ReshapeSharesStorage)
{
    Tensor a = Tensor::full({2, 3}, 1.0f);
    Tensor b = a.reshape({3, 2});
    b.set(0, 9.0f);
    EXPECT_FLOAT_EQ(a.at(0), 9.0f);
    EXPECT_THROW(a.reshape({7}), SlapoError);
}

TEST(Tensor, RandomDeterminism)
{
    Tensor a = Tensor::randn({16}, 1.0f, 7);
    Tensor b = Tensor::randn({16}, 1.0f, 7);
    EXPECT_TRUE(Tensor::allClose(a, b));
    Tensor c = Tensor::randn({16}, 1.0f, 8);
    EXPECT_FALSE(Tensor::allClose(a, c));
}

TEST(Ops, AddBroadcast)
{
    Tensor a = Tensor::fromValues({2, 2}, {1, 2, 3, 4});
    Tensor b = Tensor::fromValues({2}, {10, 20});
    Tensor c = ops::add(a, b);
    EXPECT_FLOAT_EQ(c.at(0), 11);
    EXPECT_FLOAT_EQ(c.at(1), 22);
    EXPECT_FLOAT_EQ(c.at(3), 24);
}

TEST(Ops, MatmulSmall)
{
    Tensor a = Tensor::fromValues({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor b = Tensor::fromValues({3, 2}, {7, 8, 9, 10, 11, 12});
    Tensor c = ops::matmul(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 2}));
    EXPECT_FLOAT_EQ(c.at(0), 58);
    EXPECT_FLOAT_EQ(c.at(3), 154);
}

TEST(Ops, MatmulBatchBroadcast)
{
    Tensor a = Tensor::uniform({2, 4, 3}, 1.0f, 1);
    Tensor b = Tensor::uniform({3, 5}, 1.0f, 2);
    Tensor c = ops::matmul(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 4, 5}));
    // Consistency against per-batch 2-D multiply.
    Tensor a0 = ops::narrow(a, 0, 1, 1).reshape({4, 3});
    Tensor c0 = ops::matmul(a0, b);
    Tensor c1 = ops::narrow(c, 0, 1, 1).reshape({4, 5});
    EXPECT_TRUE(Tensor::allClose(c0, c1, 1e-5f));
}

TEST(Ops, LinearMatchesMatmul)
{
    Tensor x = Tensor::uniform({2, 3, 4}, 1.0f, 3);
    Tensor w = Tensor::uniform({5, 4}, 1.0f, 4);
    Tensor b = Tensor::uniform({5}, 1.0f, 5);
    Tensor y = ops::linear(x, w, b);
    Tensor y_ref = ops::add(ops::matmul(x, ops::transposeLast2(w)), b);
    EXPECT_TRUE(Tensor::allClose(y, y_ref, 1e-4f));
}

TEST(Ops, SoftmaxRowsSumToOne)
{
    Tensor x = Tensor::uniform({3, 7}, 3.0f, 11);
    Tensor y = ops::softmax(x);
    for (int64_t r = 0; r < 3; ++r) {
        float sum = 0;
        for (int64_t i = 0; i < 7; ++i) sum += y.at(r * 7 + i);
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

TEST(Ops, LayerNormNormalizes)
{
    Tensor x = Tensor::uniform({2, 8}, 2.0f, 13);
    Tensor gamma = Tensor::full({8}, 1.0f);
    Tensor beta = Tensor::zeros({8});
    Tensor y = ops::layerNorm(x, gamma, beta, 1e-5f);
    for (int64_t r = 0; r < 2; ++r) {
        float mean = 0;
        for (int64_t i = 0; i < 8; ++i) mean += y.at(r * 8 + i);
        EXPECT_NEAR(mean / 8, 0.0f, 1e-5f);
    }
}

TEST(Ops, DropoutDeterministicAndScaled)
{
    Tensor x = Tensor::full({1000}, 1.0f);
    Tensor y1 = ops::dropout(x, 0.5f, 77);
    Tensor y2 = ops::dropout(x, 0.5f, 77);
    EXPECT_TRUE(Tensor::allClose(y1, y2));
    // Kept elements are scaled by 1/(1-p); expectation preserved.
    float mean = 0;
    for (int64_t i = 0; i < 1000; ++i) mean += y1.at(i);
    EXPECT_NEAR(mean / 1000, 1.0f, 0.1f);
    // p = 0 is the identity.
    EXPECT_TRUE(Tensor::allClose(ops::dropout(x, 0.0f, 1), x));
}

TEST(Ops, ConcatChunkRoundTrip)
{
    Tensor a = Tensor::uniform({2, 6}, 1.0f, 17);
    auto parts = ops::chunk(a, 3, 1);
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0].shape(), (Shape{2, 2}));
    Tensor back = ops::concat(parts, 1);
    EXPECT_TRUE(Tensor::allClose(a, back));
}

TEST(Ops, NarrowBackwardScatters)
{
    Tensor g = Tensor::full({2, 2}, 1.0f);
    Tensor full = Tensor::zeros({2, 5});
    ops::narrowBackwardInto(g, full, 1, 2);
    EXPECT_FLOAT_EQ(full.at(0), 0);
    EXPECT_FLOAT_EQ(full.at(2), 1);
    EXPECT_FLOAT_EQ(full.at(3), 1);
    EXPECT_FLOAT_EQ(full.at(4), 0);
}

TEST(Ops, PermuteRoundTrip)
{
    Tensor a = Tensor::uniform({2, 3, 4}, 1.0f, 19);
    Tensor b = ops::permute(a, {2, 0, 1});
    EXPECT_EQ(b.shape(), (Shape{4, 2, 3}));
    Tensor c = ops::permute(b, {1, 2, 0});
    EXPECT_TRUE(Tensor::allClose(a, c));
}

TEST(Ops, EmbeddingGathersRows)
{
    Tensor table = Tensor::fromValues({3, 2}, {0, 1, 10, 11, 20, 21});
    Tensor ids = Tensor::fromValues({2}, {2, 0});
    Tensor e = ops::embedding(ids, table);
    EXPECT_FLOAT_EQ(e.at(0), 20);
    EXPECT_FLOAT_EQ(e.at(3), 1);
}

TEST(Ops, EmbeddingBackwardAccumulates)
{
    Tensor ids = Tensor::fromValues({3}, {1, 1, 0});
    Tensor g = Tensor::full({3, 2}, 1.0f);
    Tensor gt = ops::embeddingBackward(g, ids, 3);
    EXPECT_FLOAT_EQ(gt.at(2), 2.0f); // row 1 hit twice
    EXPECT_FLOAT_EQ(gt.at(0), 1.0f);
    EXPECT_FLOAT_EQ(gt.at(4), 0.0f);
}

TEST(Ops, CausalMaskKillsFuture)
{
    Tensor s = Tensor::zeros({1, 2, 2});
    Tensor m = ops::causalMask(s);
    EXPECT_FLOAT_EQ(m.at(0), 0);
    EXPECT_LT(m.at(1), -1e8);
    EXPECT_FLOAT_EQ(m.at(2), 0);
    Tensor p = ops::softmax(m);
    EXPECT_NEAR(p.at(1), 0.0f, 1e-6f);
}

TEST(Ops, RelPosBiasAddsBucketedTable)
{
    // 1 head, buckets = 2 -> table width 3: [far-left, diag, far-right].
    Tensor scores = Tensor::zeros({1, 1, 3, 3});
    Tensor table = Tensor::fromValues({1, 3}, {-1, 0, 1});
    Tensor out = ops::relPosBias(scores, table);
    // Diagonal gets table[1] = 0; j > i gets +1; j < i gets -1 (clipped).
    EXPECT_FLOAT_EQ(out.at(0), 0);  // (0,0)
    EXPECT_FLOAT_EQ(out.at(1), 1);  // (0,1)
    EXPECT_FLOAT_EQ(out.at(2), 1);  // (0,2) clipped to the same bucket
    EXPECT_FLOAT_EQ(out.at(3), -1); // (1,0)
    EXPECT_FLOAT_EQ(out.at(4), 0);  // (1,1)
}

TEST(Ops, RelPosBiasBackwardAccumulatesBuckets)
{
    Tensor grad = Tensor::full({1, 1, 3, 3}, 1.0f);
    Tensor table_grad = ops::relPosBiasTableBackward(grad, {1, 3});
    // 3 below-diagonal cells, 3 diagonal cells, 3 above-diagonal cells.
    EXPECT_FLOAT_EQ(table_grad.at(0), 3);
    EXPECT_FLOAT_EQ(table_grad.at(1), 3);
    EXPECT_FLOAT_EQ(table_grad.at(2), 3);
}

TEST(Ops, CrossEntropyOfUniformLogits)
{
    Tensor logits = Tensor::zeros({2, 4});
    Tensor targets = Tensor::fromValues({2}, {0, 3});
    Tensor loss = ops::crossEntropy(logits, targets);
    EXPECT_NEAR(loss.at(0), std::log(4.0f), 1e-5f);
}

TEST(Ops, CrossEntropyBackwardChecksTargets)
{
    // The backward indexes the gradient with each target, so it checks
    // them as the forward does: one per row, each in [0, vocab).
    const Tensor logits = Tensor::uniform({2, 4}, 1.0f, 1);
    for (const Tensor& targets :
         {Tensor::fromValues({2}, {0, 7}), Tensor::fromValues({2}, {0, 4}),
          Tensor::fromValues({2}, {0, -1}), Tensor::fromValues({1}, {0}),
          Tensor::fromValues({3}, {0, 1, 2})}) {
        EXPECT_THROW(ops::crossEntropy(logits, targets), SlapoError);
        EXPECT_THROW(ops::crossEntropyBackward(logits, targets), SlapoError);
    }
    const Tensor grad =
        ops::crossEntropyBackward(logits, Tensor::fromValues({2}, {0, 3}));
    EXPECT_EQ(grad.shape(), logits.shape());
}

TEST(Ops, RangeMaskAndClamp)
{
    Tensor x = Tensor::fromValues({4}, {-1, 0, 2, 5});
    Tensor m = ops::rangeMask(x, 0, 3);
    EXPECT_FLOAT_EQ(m.at(0), 0);
    EXPECT_FLOAT_EQ(m.at(1), 1);
    EXPECT_FLOAT_EQ(m.at(2), 1);
    EXPECT_FLOAT_EQ(m.at(3), 0);
    Tensor c = ops::clampScalar(x, 0, 3);
    EXPECT_FLOAT_EQ(c.at(0), 0);
    EXPECT_FLOAT_EQ(c.at(3), 3);
}

/** Float bit patterns from -12 to 12 at a fixed stride, both signs. */
Tensor
sweepToTwelve()
{
    std::vector<float> values;
    const uint32_t top = std::bit_cast<uint32_t>(12.0f);
    for (uint32_t u = 0; u <= top; u += 1021) {
        values.push_back(std::bit_cast<float>(u));
        values.push_back(std::bit_cast<float>(u | 0x80000000u));
    }
    const int64_t n = static_cast<int64_t>(values.size());
    return Tensor::fromValues({n}, std::move(values));
}

/** Distance in units in the last place: floats counted along the line. */
int64_t
ulpDistance(float a, float b)
{
    auto ordered = [](float f) {
        const int32_t i = std::bit_cast<int32_t>(f);
        return i < 0 ? -static_cast<int64_t>(i & 0x7fffffff)
                     : static_cast<int64_t>(i);
    };
    const int64_t d = ordered(a) - ordered(b);
    return d < 0 ? -d : d;
}

TEST(Ops, TanhWithinTwoUlpOfDoubleAndSpecialValues)
{
    const Tensor x = sweepToTwelve();
    const Tensor y = ops::tanhOp(x);
    int64_t worst = 0;
    for (int64_t i = 0; i < x.numel(); ++i) {
        const float want =
            static_cast<float>(std::tanh(static_cast<double>(x.at(i))));
        const int64_t d = ulpDistance(y.at(i), want);
        ASSERT_LE(d, 2) << "tanh(" << x.at(i) << ") = " << y.at(i)
                        << ", want " << want;
        worst = std::max(worst, d);
    }
    RecordProperty("worst_ulp", static_cast<int>(worst));

    const float inf = INFINITY;
    const float max_denormal = std::bit_cast<float>(0x007fffffu);
    const std::vector<float> special = {
        0.0f, -0.0f, 1e-45f, -1e-45f, 1e-40f, -max_denormal, max_denormal,
        inf, -inf, NAN, -NAN};
    const Tensor t = ops::tanhOp(
        Tensor::fromValues({static_cast<int64_t>(special.size())}, special));
    auto bits = [](float f) { return std::bit_cast<uint32_t>(f); };
    // Zeros keep their sign and denormals map to themselves, bit for bit.
    for (size_t i = 0; i < 7; ++i) {
        EXPECT_EQ(bits(t.at(i)), bits(special[i]))
            << "tanh(" << special[i] << ")";
    }
    EXPECT_EQ(t.at(7), 1.0f);
    EXPECT_EQ(t.at(8), -1.0f);
    EXPECT_TRUE(std::isnan(t.at(9)));
    EXPECT_TRUE(std::isnan(t.at(10)));
}

TEST(Ops, GeluAndBackwardMatchLibmTanhFormulas)
{
    const Tensor x = sweepToTwelve();
    const Tensor y = ops::gelu(x);
    const Tensor d = ops::geluBackward(Tensor::full(x.shape(), 1.0f), x);
    // Reference: the kernels' formulas evaluated with libm's tanhf.
    const float c = 0.7978845608028654f;
    float worst_y = 0.0f;
    float worst_d = 0.0f;
    for (int64_t i = 0; i < x.numel(); ++i) {
        const float v = x.at(i);
        const float t = std::tanh(c * (v + 0.044715f * v * v * v));
        const float want_y = 0.5f * v * (1.0f + t);
        const float want_d =
            0.5f * (1.0f + t) +
            0.5f * v * (1.0f - t * t) * (c * (1.0f + 3.0f * 0.044715f * v * v));
        worst_y = std::max(worst_y, std::abs(y.at(i) - want_y));
        worst_d = std::max(worst_d, std::abs(d.at(i) - want_d));
    }
    EXPECT_LE(worst_y, 5e-7f);
    EXPECT_LE(worst_d, 5e-7f);
    RecordProperty("gelu_worst_abs", testing::PrintToString(worst_y));
    RecordProperty("gelu_backward_worst_abs", testing::PrintToString(worst_d));
}

TEST(Ops, Conv2dIdentityKernel)
{
    Tensor x = Tensor::uniform({1, 1, 4, 4}, 1.0f, 23);
    Tensor w = Tensor::fromValues({1, 1, 1, 1}, {1.0f});
    Tensor y = ops::conv2d(x, w, 1, 0);
    EXPECT_TRUE(Tensor::allClose(x, y.reshape(x.shape())));
}

TEST(Ops, GlobalAvgPool)
{
    Tensor x = Tensor::full({2, 3, 4, 4}, 2.0f);
    Tensor y = ops::globalAvgPool(x);
    EXPECT_EQ(y.shape(), (Shape{2, 3}));
    EXPECT_FLOAT_EQ(y.at(0), 2.0f);
}

// --- gradient checks against finite differences ------------------------------

float
numericalGrad(const std::function<float(const Tensor&)>& f, Tensor x,
              int64_t index)
{
    const float eps = 1e-3f;
    const float orig = x.at(index);
    x.set(index, orig + eps);
    const float up = f(x);
    x.set(index, orig - eps);
    const float down = f(x);
    x.set(index, orig);
    return (up - down) / (2 * eps);
}

TEST(Grad, GeluMatchesFiniteDifference)
{
    Tensor x = Tensor::uniform({5}, 1.5f, 29);
    Tensor g = Tensor::full({5}, 1.0f);
    Tensor analytic = ops::geluBackward(g, x);
    for (int64_t i = 0; i < 5; ++i) {
        const float fd = numericalGrad(
            [&](const Tensor& t) {
                Tensor y = ops::gelu(t);
                float sum = 0;
                for (int64_t j = 0; j < y.numel(); ++j) sum += y.at(j);
                return sum;
            },
            x, i);
        EXPECT_NEAR(analytic.at(i), fd, 2e-2f);
    }
}

TEST(Grad, SoftmaxMatchesFiniteDifference)
{
    Tensor x = Tensor::uniform({1, 4}, 1.0f, 31);
    Tensor w = Tensor::uniform({1, 4}, 1.0f, 32); // random projection
    auto f = [&](const Tensor& t) {
        Tensor y = ops::softmax(t);
        Tensor prod = ops::mul(y, w);
        return ops::sumAll(prod).at(0);
    };
    Tensor y = ops::softmax(x);
    Tensor analytic = ops::softmaxBackward(w, y);
    for (int64_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(analytic.at(i), numericalGrad(f, x, i), 2e-3f);
    }
}

TEST(Grad, LayerNormMatchesFiniteDifference)
{
    Tensor x = Tensor::uniform({2, 4}, 1.0f, 37);
    Tensor gamma = Tensor::uniform({4}, 1.0f, 38);
    Tensor beta = Tensor::uniform({4}, 1.0f, 39);
    Tensor w = Tensor::uniform({2, 4}, 1.0f, 40);
    auto f = [&](const Tensor& t) {
        return ops::sumAll(ops::mul(ops::layerNorm(t, gamma, beta, 1e-5f), w))
            .at(0);
    };
    auto grads = ops::layerNormBackward(w, x, gamma, 1e-5f);
    for (int64_t i = 0; i < 8; ++i) {
        EXPECT_NEAR(grads.grad_x.at(i), numericalGrad(f, x, i), 5e-3f);
    }
}

TEST(Grad, LinearMatchesFiniteDifference)
{
    Tensor x = Tensor::uniform({2, 3}, 1.0f, 41);
    Tensor w = Tensor::uniform({4, 3}, 1.0f, 42);
    Tensor wsum = Tensor::uniform({2, 4}, 1.0f, 43);
    auto f = [&](const Tensor& t) {
        return ops::sumAll(ops::mul(ops::linear(t, w, Tensor::zeros({4})), wsum))
            .at(0);
    };
    auto grads = ops::linearBackward(wsum, x, w, true);
    for (int64_t i = 0; i < 6; ++i) {
        EXPECT_NEAR(grads.grad_x.at(i), numericalGrad(f, x, i), 5e-3f);
    }
}

TEST(Grad, CrossEntropyMatchesFiniteDifference)
{
    Tensor logits = Tensor::uniform({2, 3}, 1.0f, 47);
    Tensor targets = Tensor::fromValues({2}, {1, 2});
    auto f = [&](const Tensor& t) { return ops::crossEntropy(t, targets).at(0); };
    Tensor analytic = ops::crossEntropyBackward(logits, targets);
    for (int64_t i = 0; i < 6; ++i) {
        EXPECT_NEAR(analytic.at(i), numericalGrad(f, logits, i), 5e-3f);
    }
}

// --- optimizer ---------------------------------------------------------------

TEST(AdamW, ConvergesOnQuadratic)
{
    // Minimize (p - 3)^2 elementwise.
    AdamWConfig config;
    config.lr = 0.1f;
    config.weight_decay = 0.0f;
    AdamW opt(config);
    Tensor p = Tensor::zeros({4});
    opt.addParam(p);
    for (int step = 0; step < 300; ++step) {
        Tensor grad = Tensor::zeros({4});
        for (int64_t i = 0; i < 4; ++i) {
            grad.set(i, 2.0f * (opt.param(0).at(i) - 3.0f));
        }
        opt.step({grad});
    }
    for (int64_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(opt.param(0).at(i), 3.0f, 0.05f);
    }
}

TEST(AdamW, WeightDecayShrinksParams)
{
    AdamWConfig config;
    config.lr = 0.1f;
    config.weight_decay = 0.5f;
    AdamW opt(config);
    Tensor p = Tensor::full({1}, 1.0f);
    opt.addParam(p);
    opt.step({Tensor::zeros({1})});
    EXPECT_LT(opt.param(0).at(0), 1.0f);
}

TEST(AdamW, RejectsGradientCountMismatch)
{
    AdamW opt;
    opt.addParam(Tensor::zeros({2}));
    EXPECT_THROW(opt.step({}), SlapoError);
}

} // namespace
} // namespace slapo
