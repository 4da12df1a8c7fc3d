/**
 * @file
 * Tests of the parallel blocked kernel backend: the thread pool itself
 * (partitioning, exception propagation) and the determinism contract —
 * every kernel must produce bit-identical results at any thread count,
 * because chunk boundaries are a function of the problem shape only, and
 * on every ISA path the CPU can run (tensor/kernels.h).
 */
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <random>
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

/** One GEMM by its definition: C = seed + A @ B, the seed being the bias
 * or +0, A[i, kk] = a[i * a_rs + kk * a_cs] and
 * B[kk, j] = b[kk * b_rs + j * b_cs]. */
struct GemmDefinition
{
    const float* a;
    int64_t a_rs, a_cs;
    const float* b;
    int64_t b_rs, b_cs;
    int64_t m, k, n;
    const float* bias;

    float aAt(int64_t i, int64_t kk) const { return a[i * a_rs + kk * a_cs]; }
    float bAt(int64_t kk, int64_t j) const { return b[kk * b_rs + j * b_cs]; }
    float seedAt(int64_t j) const { return bias != nullptr ? bias[j] : 0.0f; }
};

/** Each element starts at its seed and takes one fused multiply-add per
 * product A[i, kk] * B[kk, j], kk ascending: the bits the GEMM kernels
 * promise. */
Tensor
naiveGemm(const GemmDefinition& d)
{
    Tensor c = Tensor::zeros({d.m, d.n});
    float* pc = c.data();
    for (int64_t i = 0; i < d.m; ++i) {
        for (int64_t j = 0; j < d.n; ++j) {
            float acc = d.seedAt(j);
            for (int64_t kk = 0; kk < d.k; ++kk) {
                acc = std::fma(d.aAt(i, kk), d.bAt(kk, j), acc);
            }
            pc[i * d.n + j] = acc;
        }
    }
    return c;
}

/**
 * matmul, linear with and without bias, and both linearBackward GEMMs over
 * a sweep of shapes. n straddles the panel widths of all paths (16, 24 and
 * 32 columns) and m their 4- and 8-row tiles; every (m, n) pair runs, with
 * k cycling through 0, 1, 17 and 256 so each k meets each m and n.
 */
class GemmSweep
{
  public:
    GemmSweep()
    {
        const int64_t ms[] = {1, 3, 4, 5, 64, 65, 130};
        const int64_t ks[] = {0, 1, 17, 256};
        const int64_t ns[] = {1, 15, 16, 17, 63, 64, 65, 130, 1030};
        uint64_t seed = 100;
        for (size_t mi = 0; mi < std::size(ms); ++mi) {
            for (size_t ni = 0; ni < std::size(ns); ++ni) {
                const int64_t m = ms[mi];
                const int64_t k = ks[(mi + ni) % std::size(ks)];
                const int64_t n = ns[ni];
                cases_.push_back({Tensor::uniform({m, k}, 1.0f, seed++),
                                  Tensor::uniform({n, k}, 1.0f, seed++),
                                  Tensor::uniform({n}, 1.0f, seed++),
                                  Tensor::uniform({m, n}, 1.0f, seed++),
                                  Tensor::uniform({k, n}, 1.0f, seed++)});
                const Case& c = cases_.back();
                const float* x = c.x.data();
                const float* w = c.w.data();
                const float* g = c.g.data();
                definitions_.push_back(
                    {x, k, 1, c.b.data(), n, 1, m, k, n, nullptr});
                definitions_.push_back(
                    {x, k, 1, w, 1, k, m, k, n, c.bias.data()});
                definitions_.push_back({x, k, 1, w, 1, k, m, k, n, nullptr});
                definitions_.push_back({g, n, 1, w, k, 1, m, n, k, nullptr});
                definitions_.push_back({g, 1, n, x, k, 1, n, m, k, nullptr});
            }
        }
    }

    /** The GEMMs in run() order. */
    const std::vector<GemmDefinition>& definitions() const
    {
        return definitions_;
    }

    /** The ops outputs, five per case, in definitions() order. */
    std::vector<Tensor> run() const
    {
        const Tensor no_bias = Tensor::zeros({0});
        std::vector<Tensor> out;
        for (const Case& c : cases_) {
            out.push_back(ops::matmul(c.x, c.b));
            out.push_back(ops::linear(c.x, c.w, c.bias));
            out.push_back(ops::linear(c.x, c.w, no_bias));
            ops::LinearGrads grads = ops::linearBackward(c.g, c.x, c.w, false);
            out.push_back(grads.grad_x);
            out.push_back(grads.grad_weight);
        }
        return out;
    }

  private:
    struct Case
    {
        Tensor x, w, bias, g, b;
    };
    // A deque keeps each Case where it is, so the definitions' pointers
    // into its tensors stay valid.
    std::deque<Case> cases_;
    std::vector<GemmDefinition> definitions_;
};

TEST(ParallelDeterminism, GemmsMatchNaiveReferenceBitForBit)
{
    // Every GEMM of the sweep, plus a broadcast batched matmul, against
    // the definition, byte for byte, on every ISA path at 1/2/7 threads.
    const GemmSweep sweep;
    std::vector<Tensor> expected;
    for (const GemmDefinition& d : sweep.definitions()) {
        expected.push_back(naiveGemm(d));
    }
    // Batched, broadcast on both sides: [2, 1] x [3] batch entries.
    const Tensor ba = Tensor::uniform({2, 1, 5, 17}, 1.0f, 1000);
    const Tensor bb = Tensor::uniform({3, 17, 65}, 1.0f, 1001);
    Tensor batched = Tensor::zeros({2, 3, 5, 65});
    for (int64_t i = 0; i < 2; ++i) {
        for (int64_t j = 0; j < 3; ++j) {
            const Tensor entry =
                naiveGemm({ba.data() + i * 5 * 17, 17, 1,
                           bb.data() + j * 17 * 65, 65, 1, 5, 17, 65, nullptr});
            std::memcpy(batched.data() + (i * 3 + j) * 5 * 65, entry.data(),
                        5 * 65 * sizeof(float));
        }
    }
    expected.push_back(batched);

    auto run = [&] {
        std::vector<Tensor> out = sweep.run();
        out.push_back(ops::matmul(ba, bb));
        return out;
    };
    // Every path equals the baseline one (expectBitIdentical); the default
    // one equals the definition.
    expectBitIdentical(run);
    const std::vector<Tensor> got = run();
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(sameBits(got[i], expected[i]))
            << "output " << i << " (case " << i / 5 << ", GEMM " << i % 5
            << ") differs from the naive loop by up to "
            << maxAbsDiff(got[i], expected[i]);
    }
}

TEST(ParallelDeterminism, GemmsWithinFmaBoundOfLongDoubleReference)
{
    // The accuracy bound of a chain of k fused multiply-adds from a seed:
    // |c_hat - c| <= gamma_k * (|seed| + sum |a_i * b_i|), with
    // gamma_k = k u / (1 - k u) and u = 2^-24, against a long double
    // reference (float products are exact in it), on every ISA path.
    const GemmSweep sweep;
    const long double u = std::ldexp(1.0L, -24);
    IsaGuard isa_guard;
    for (kernels::Isa isa : availableIsas()) {
        kernels::setIsaForTesting(isa);
        const std::vector<Tensor> got = sweep.run();
        ASSERT_EQ(got.size(), sweep.definitions().size());
        long double worst = 0.0L; // largest error over its bound
        for (size_t g = 0; g < got.size(); ++g) {
            const GemmDefinition& d = sweep.definitions()[g];
            ASSERT_EQ(got[g].shape(), (Shape{d.m, d.n}));
            const float* pc = got[g].data();
            const long double gamma = d.k * u / (1.0L - d.k * u);
            for (int64_t i = 0; i < d.m; ++i) {
                for (int64_t j = 0; j < d.n; ++j) {
                    long double exact = d.seedAt(j);
                    long double magnitude = std::fabs(exact);
                    for (int64_t kk = 0; kk < d.k; ++kk) {
                        const long double p =
                            static_cast<long double>(d.aAt(i, kk)) *
                            d.bAt(kk, j);
                        exact += p;
                        magnitude += std::fabs(p);
                    }
                    const long double error =
                        std::fabs(pc[i * d.n + j] - exact);
                    ASSERT_LE(error, gamma * magnitude)
                        << kernels::isaName(isa) << ", GEMM " << g
                        << " at (" << i << ", " << j << "), k = " << d.k;
                    if (gamma > 0.0L) {
                        worst = std::max(worst, error / (gamma * magnitude));
                    }
                }
            }
        }
        std::printf("%s: largest error %.3Lg of the bound\n",
                    kernels::isaName(isa), worst);
    }
}

/** Compare linear with in_features 1, out[i][j] = fmaf(x[i], w[j], b[j]),
 * with std::fmaf byte for byte; returns the number of mismatches. */
int64_t
countFmaMismatches(const std::vector<float>& x, const std::vector<float>& w,
                   const std::vector<float>& bias)
{
    const int64_t rows = static_cast<int64_t>(x.size());
    const int64_t cols = static_cast<int64_t>(w.size());
    const Tensor y = ops::linear(Tensor::fromValues({rows, 1}, x),
                                 Tensor::fromValues({cols, 1}, w),
                                 Tensor::fromValues({cols}, bias));
    int64_t mismatches = 0;
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < cols; ++j) {
            const float want = std::fmaf(x[i], w[j], bias[j]);
            const float got = y.data()[i * cols + j];
            if (std::bit_cast<uint32_t>(got) != std::bit_cast<uint32_t>(want)) {
                if (++mismatches <= 3) {
                    ADD_FAILURE() << std::hexfloat << "fmaf(" << x[i] << ", "
                                  << w[j] << ", " << bias[j] << ") = " << want
                                  << ", got " << got;
                }
            }
        }
    }
    return mismatches;
}

TEST(IsaDispatch, BaselineFmaEmulationMatchesFmaf)
{
    // The baseline path has no fused multiply-add instruction and emulates
    // one in double (kernels_body.h, fmaEmulated). A GEMM with k = 1 and a
    // bias is exactly one fmaf per output.
    IsaGuard isa_guard;
    kernels::setIsaForTesting(kernels::Isa::X86_64);

    // Double rounding: a * b = 1 + 2^-11 + 2^-24 is a float midpoint, and
    // c = +-2^-60 decides the side, but a * b + c rounds back to the
    // midpoint in double. Scaled by 2^e, e in [-30, 30]; the rows and
    // columns of different e are further cases.
    const float near_one = 1.0f + std::ldexp(1.0f, -12);
    std::vector<float> x, w, bias;
    for (int e = -30; e <= 30; ++e) {
        x.push_back(std::ldexp(near_one, e));
        for (float sign : {1.0f, -1.0f}) {
            w.push_back(near_one);
            bias.push_back(sign * std::ldexp(1.0f, e - 60));
        }
    }
    EXPECT_EQ(countFmaMismatches(x, w, bias), 0) << "double-rounding cases";

    // Random operands over a wide range of exponents, and tiny ones whose
    // products and sums fall in the float subnormal range.
    std::mt19937 rng(7);
    auto randomFloat = [&](int lo_exp, int hi_exp) {
        std::uniform_real_distribution<float> mantissa(1.0f, 2.0f);
        std::uniform_int_distribution<int> exponent(lo_exp, hi_exp);
        const float sign = rng() % 2 == 0 ? 1.0f : -1.0f;
        return sign * std::ldexp(mantissa(rng), exponent(rng));
    };
    for (auto [lo, hi, bias_lo, bias_hi] :
         {std::array{-20, 20, -40, 40}, std::array{-76, -60, -150, -120}}) {
        x.assign(64, 0.0f);
        w.assign(64, 0.0f);
        bias.assign(64, 0.0f);
        for (int i = 0; i < 64; ++i) {
            x[i] = randomFloat(lo, hi);
            w[i] = randomFloat(lo, hi);
            bias[i] = randomFloat(bias_lo, bias_hi);
        }
        EXPECT_EQ(countFmaMismatches(x, w, bias), 0)
            << "random operands, exponents " << lo << ".." << hi;
    }

    // Signed zeros: fma(-0, b, +0) = +0, fma(-0, b, -0) = -0 for b > 0.
    EXPECT_EQ(countFmaMismatches({-0.0f, 0.0f}, {2.0f, -2.0f, 0.0f, -0.0f},
                                 {0.0f, 0.0f, -0.0f, -0.0f}),
              0)
        << "signed zeros";

    // Infinities and NaNs, at most one NaN operand per output: several
    // NaN operands may give any one of their payloads.
    const float inf = std::numeric_limits<float>::infinity();
    // A quiet NaN with a payload.
    const float nan = std::bit_cast<float>(0x7fc12345u);
    EXPECT_EQ(countFmaMismatches({inf, -inf, 0.0f, 1.5f},
                                 {inf, -inf, 0.0f, 2.0f},
                                 {-inf, inf, 1.0f, -3.0f}),
              0)
        << "infinities";
    EXPECT_EQ(countFmaMismatches({nan, -nan}, {1.5f, 0.0f, inf},
                                 {2.0f, -1.0f, 3.0f}),
              0)
        << "NaN in x";
    EXPECT_EQ(countFmaMismatches({1.5f, 0.0f, inf}, {nan}, {2.0f}), 0)
        << "NaN in the weight";
    EXPECT_EQ(countFmaMismatches({1.5f, 0.0f, inf}, {2.0f}, {nan}), 0)
        << "NaN in the bias";
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

/** Rows of width d that fill three row chunks and part of a fourth
 * (ops.cc's rowGrain), so 2 and 7 threads really split them. */
int64_t
rowsSpanningChunks(int64_t d)
{
    return 3 * std::max<int64_t>(1, (1 << 14) / d) + 5;
}

TEST(ParallelDeterminism, RowKernelsForwardBackward)
{
    // Widths on both sides of the 16 lanes, with scores masked as
    // causalMask does (-1e9 added) in the softmax and cross-entropy input.
    for (int64_t d : {1, 15, 17, 64, 2047}) {
        SCOPED_TRACE("width " + std::to_string(d));
        const int64_t rows = rowsSpanningChunks(d);
        Tensor scores = Tensor::uniform({rows, d}, 4.0f, 30 + d);
        float* ps = scores.data();
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t i = r % d + 1; i < d; i += 3) ps[r * d + i] += -1e9f;
        }
        const Tensor targets = Tensor::randint({rows}, d, 31 + d);
        const Tensor x = Tensor::uniform({rows, d}, 2.0f, 32 + d);
        const Tensor gamma = Tensor::uniform({d}, 1.0f, 33 + d);
        const Tensor beta = Tensor::uniform({d}, 1.0f, 34 + d);
        const Tensor g = Tensor::uniform({rows, d}, 1.0f, 35 + d);
        expectBitIdentical([&] {
            const Tensor y = ops::softmax(scores);
            Tensor in_place = scores.clone();
            ops::softmaxInPlace(in_place);
            EXPECT_TRUE(sameBits(in_place, y));
            ops::LayerNormGrads lg = ops::layerNormBackward(g, x, gamma, 1e-5f);
            return std::vector<Tensor>{
                y,
                ops::crossEntropy(scores, targets),
                ops::crossEntropyBackward(scores, targets, 0.75f),
                ops::layerNorm(x, gamma, beta, 1e-5f),
                lg.grad_x,
                lg.grad_gamma,
                lg.grad_beta,
            };
        });
    }
}

TEST(ParallelDeterminism, ElementwiseAndReduce)
{
    Tensor a = Tensor::uniform({5, 64, 33}, 1.0f, 13);
    Tensor b = Tensor::uniform({5, 64, 33}, 1.0f, 14);
    Tensor row = Tensor::uniform({33}, 1.0f, 15);
    // gelu and tanh: 65,792 elements, so four 2^14-element chunks plus a
    // ragged one that 2 and 7 threads really split, over a range that
    // covers both sides of tanh's polynomial/exp switch at |x| = 0.625.
    Tensor x = Tensor::uniform({4, 64, 257}, 6.0f, 16);
    Tensor g = Tensor::uniform({4, 64, 257}, 1.0f, 17);
    expectBitIdentical([&] {
        Tensor gelu_in_place = x.clone();
        ops::geluInPlace(gelu_in_place);
        Tensor tanh_in_place = x.clone();
        ops::tanhInPlace(tanh_in_place);
        return std::vector<Tensor>{
            ops::add(a, b),
            ops::mul(a, row),
            ops::gelu(a),
            ops::reduceToShape(a, {33}),
            ops::reduceToShape(a, {5, 64, 1}),
            ops::gelu(x),
            ops::geluBackward(g, x),
            ops::tanhOp(x),
            gelu_in_place,
            tanh_in_place,
        };
    });
    // The in-place twins run the same kernels as the out-of-place ops.
    Tensor y = x.clone();
    ops::geluInPlace(y);
    EXPECT_TRUE(sameBits(y, ops::gelu(x)));
    y = x.clone();
    ops::tanhInPlace(y);
    EXPECT_TRUE(sameBits(y, ops::tanhOp(x)));
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

// --- fused attention against the decomposed graph ------------------------

struct AttentionCase
{
    const char* name;
    bool packed;
    bool causal;
    double dropout_p;
    int64_t buckets; ///< relative-bias buckets (0: no bias)
    int64_t batch, sq, sk, heads, head_dim;
};

/**
 * One training step of `core` under an MSE loss through the autograd
 * engine: the eager forward context, the loss, then the gradient of every
 * input (the packed QKV, or q, k and v) and of the bias table.
 */
std::vector<Tensor>
attentionStep(const nn::ModulePtr& core, const AttentionCase& c)
{
    const int64_t hidden = c.heads * c.head_dim;
    std::vector<Tensor> inputs;
    if (c.packed) {
        inputs.push_back(
            Tensor::uniform({c.batch, c.sq, 3 * hidden}, 1.0f, 61));
    } else {
        inputs.push_back(Tensor::uniform({c.batch, c.sq, hidden}, 1.0f, 61));
        inputs.push_back(Tensor::uniform({c.batch, c.sk, hidden}, 1.0f, 62));
        inputs.push_back(Tensor::uniform({c.batch, c.sk, hidden}, 1.0f, 63));
    }
    std::vector<nn::Value> values(inputs.begin(), inputs.end());
    std::vector<Tensor> out = {core->callOne(values).tensor()};

    inputs.push_back(Tensor::uniform({c.batch, c.sq, hidden}, 1.0f, 64));
    auto model = runtime::withMseLoss(core);
    runtime::AutogradEngine engine;
    runtime::GradResult result = engine.run(*model, inputs);
    out.push_back(result.outputs[0]);
    out.insert(out.end(), result.input_grads.begin(),
               result.input_grads.end() - 1); // not the target's
    if (c.buckets > 0) {
        out.push_back(runtime::AutogradEngine::gradFor(
            result, core->paramTensor("rel_bias")));
    }
    return out;
}

TEST(ParallelDeterminism, EfficientAttentionMatchesCoreAttentionBitForBit)
{
    // Head dims 5 and 12 are not whole vectors on any path; 40 keys span
    // two AVX-512 panels. Sq != Sk needs separate q and k (cross-attention).
    const std::vector<AttentionCase> cases = {
        {"packed", true, false, 0.0, 0, 2, 9, 9, 3, 8},
        {"packed causal", true, true, 0.0, 0, 2, 9, 9, 3, 8},
        {"packed dropout", true, false, 0.1, 0, 2, 9, 9, 3, 8},
        {"packed causal bias dropout", true, true, 0.1, 4, 3, 10, 10, 2, 5},
        {"three tensors", false, false, 0.0, 0, 2, 40, 40, 2, 12},
        {"cross Sq != Sk", false, false, 0.0, 0, 2, 7, 11, 3, 5},
        {"cross causal bias dropout", false, true, 0.1, 3, 2, 7, 11, 3, 5},
    };
    for (const AttentionCase& c : cases) {
        SCOPED_TRACE(c.name);
        auto core = std::make_shared<nn::CoreAttention>(c.head_dim,
                                                        c.dropout_p, c.causal);
        if (c.buckets > 0) {
            core->enableRelativeBias(c.heads, c.buckets);
            core->initializeParams(65);
        }
        nn::ModulePtr efficient = nn::EfficientAttention::fromCore(*core);
        const std::vector<Tensor> reference = attentionStep(core, c);
        const std::vector<Tensor> fused = attentionStep(efficient, c);
        ASSERT_EQ(fused.size(), reference.size());
        for (size_t i = 0; i < fused.size(); ++i) {
            EXPECT_TRUE(sameBits(reference[i], fused[i]))
                << "output " << i << " differs by up to "
                << maxAbsDiff(reference[i], fused[i]);
        }
        // ...on every ISA path at 1, 2 and 7 threads.
        expectBitIdentical([&] { return attentionStep(efficient, c); });
    }
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
    // A row ([17]) or a table ([1, 32, 17]) that repeats along the leading
    // dims takes the row path, on either side of the operator; the row's
    // values broadcast from [6, 1, 17] walk the odometer, and the table
    // is checked against one float operation per element.
    Tensor row6 = Tensor::zeros({6, 1, 17});
    for (int64_t i = 0; i < row6.numel(); ++i) row6.set(i, row.at(i % 17));
    EXPECT_TRUE(sameBits(ops::add(a, row), ops::add(a, row6)));
    EXPECT_TRUE(sameBits(ops::sub(row, a), ops::sub(row6, a)));
    EXPECT_TRUE(sameBits(ops::div(a, row), ops::div(a, row6)));
    const Tensor table = Tensor::uniform({1, 32, 17}, 1.0f, 18);
    Tensor sum = Tensor::zeros(a.shape());
    Tensor diff = Tensor::zeros(a.shape());
    for (int64_t i = 0; i < a.numel(); ++i) {
        sum.set(i, a.at(i) + table.at(i % (32 * 17)));
        diff.set(i, table.at(i % (32 * 17)) - a.at(i));
    }
    EXPECT_TRUE(sameBits(ops::add(a, table), sum));
    EXPECT_TRUE(sameBits(ops::sub(table, a), diff));
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
    // The run log's global grad norm (TrainStepStats::grad_norm) sums the
    // averaged gradients in a fixed lane order, so the determinism
    // contract extends to it: bit-identical at any kernel thread count.
    // A fresh model per run — stepping mutates parameters.
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

TEST(ParallelDeterminism, GlobalGradNormWithinLongDoubleReference)
{
    // AdamW::step sums the norm in its update pass. Magnitudes six decades
    // apart, lengths that leave every lane count as a tail, and one
    // gradient over many 2^14-element chunks.
    const std::vector<Tensor> grads = {
        Tensor::uniform({1000, 257}, 1e-3f, 31),
        Tensor::uniform({7}, 2.0f, 32),
        Tensor::randn({513, 129}, 1e-6f, 33),
        Tensor::uniform({15}, 0.5f, 34),
    };
    long double sum = 0.0L;
    int64_t chunks = 0;
    for (const Tensor& g : grads) {
        chunks += support::chunkCountFor(0, g.numel(), 1 << 14);
        const float* data = g.data();
        for (int64_t i = 0; i < g.numel(); ++i) {
            const long double v = data[i];
            sum += v * v;
        }
    }
    const long double reference = std::sqrt(sum);
    // Lanes of at most 2^10 squares, a 4-level fold, then the chunks in
    // order: (1027 + chunks) * 2^-53 relative (AdamW::step).
    const long double bound =
        static_cast<long double>(1027 + chunks) * 0x1p-53L;
    ThreadGuard guard;
    IsaGuard isa_guard;
    for (kernels::Isa isa : availableIsas()) {
        kernels::setIsaForTesting(isa);
        for (int threads : {1, 7}) {
            setNumThreads(threads);
            AdamW fresh;
            for (const Tensor& g : grads) {
                fresh.addParam(Tensor::zeros(g.shape()));
            }
            const double got = fresh.step(grads);
            EXPECT_LE(std::abs(static_cast<long double>(got) - reference) /
                          reference,
                      bound)
                << kernels::isaName(isa) << " at " << threads
                << " threads: " << got << " vs "
                << static_cast<double>(reference);
        }
    }
}

// --- row kernels against a long double reference -----------------------------
//
// The bounds docs/PERFORMANCE.md states for the row kernels, in units of
// u = 2^-24, held on every ISA path over rows of widths around the 16
// lanes and the mid model's vocabulary: logits over a narrow and a wide
// range, at an offset, and with masked (-1e9) and -inf entries.

constexpr long double kU = 0x1p-24L;
/** The largest p softmax flushes to 0: e^(x_i - max) below e^-87, where
 * x_i - max may round down across -87. */
const long double kFlushed = std::exp(-86.99L);

/** The relative part of a row kernel bound: c u p, where a p of exactly
 * 0 (e^-inf) contributes nothing, whatever its distance from the max. */
long double
relativeTerm(long double c, long double p)
{
    return p > 0 ? c * kU * p : 0;
}

/** Exact softmax terms of one float row. */
struct RowReference
{
    long double max = 0;
    long double lse = 0;  ///< log(sum_i e^(x_i - max))
    long double zbar = 0; ///< sum_i p_i |x_i - max|: the row's exp error
    std::vector<long double> p;
};

RowReference
referenceRow(const float* x, int64_t d)
{
    RowReference ref;
    ref.max = *std::max_element(x, x + d);
    long double sum = 0;
    long double weighted = 0;
    for (int64_t i = 0; i < d; ++i) {
        const long double z = x[i] - ref.max;
        ref.p.push_back(std::exp(z));
        sum += ref.p.back();
        if (ref.p.back() > 0) weighted -= ref.p.back() * z;
    }
    for (long double& p : ref.p) p /= sum;
    ref.lse = std::log(sum);
    ref.zbar = weighted / sum;
    return ref;
}

/** Score rows for the softmax and cross-entropy bounds. The first element
 * of every row stays finite, so no row is all -inf. */
std::vector<Tensor>
boundScores()
{
    std::vector<Tensor> sets;
    uint64_t seed = 70;
    for (int64_t d : {1, 15, 16, 17, 64, 2047, 2048}) {
        sets.push_back(Tensor::uniform({9, d}, 4.0f, ++seed));
        sets.push_back(Tensor::uniform({9, d}, 60.0f, ++seed));
        Tensor masked = Tensor::uniform({9, d}, 4.0f, ++seed);
        float* p = masked.data();
        for (int64_t i = 0; i < masked.numel(); ++i) {
            if (i % d == 0) continue;
            if (i % 5 == 1) {
                p[i] += -1e9f;
            } else if (i % 7 == 3) {
                p[i] = -std::numeric_limits<float>::infinity();
            } else {
                p[i] += 1000.0f;
            }
        }
        sets.push_back(masked);
    }
    return sets;
}

/** Run `check(isa)` on every ISA path, with that path active. */
void
onEveryPath(const std::function<void(kernels::Isa)>& check)
{
    IsaGuard isa_guard;
    for (kernels::Isa isa : availableIsas()) {
        kernels::setIsaForTesting(isa);
        SCOPED_TRACE(kernels::isaName(isa));
        check(isa);
    }
}

TEST(RowKernels, SoftmaxWithinBoundOfLongDoubleReference)
{
    // |p - p*| <= (4 + |x_i - max| + zbar) u p* + e^-86.99: the exp is
    // within 2 u, rounding x_i - max costs |x_i - max| u, the row sum
    // carries the exps' errors (zbar u), and 1 / sum and the product
    // round once each; the flush below e^-87 is the absolute term.
    const std::vector<Tensor> sets = boundScores();
    onEveryPath([&](kernels::Isa isa) {
        long double worst = 0;
        for (const Tensor& x : sets) {
            const int64_t d = x.size(-1);
            const Tensor y = ops::softmax(x);
            for (int64_t r = 0; r < x.size(0); ++r) {
                const RowReference ref = referenceRow(x.data() + r * d, d);
                for (int64_t i = 0; i < d; ++i) {
                    const long double z = ref.max - x.data()[r * d + i];
                    const long double bound =
                        relativeTerm(4 + z + ref.zbar, ref.p[i]) + kFlushed;
                    const long double err =
                        std::fabs(y.data()[r * d + i] - ref.p[i]);
                    ASSERT_LE(err, bound)
                        << "width " << d << " row " << r << " col " << i;
                    worst = std::max(worst, err / bound);
                }
            }
        }
        std::printf("%s: softmax error up to %.3Lg of the bound\n",
                    kernels::isaName(isa), worst);
    });
}

TEST(RowKernels, CrossEntropyWithinBoundOfLongDoubleReference)
{
    // Each token's loss min(lse - z_t, -log(1e-12f)) is within
    // (3 + zbar) u of the exact one (the row sum's error, as in softmax;
    // the log and the rest are double), and the mean rounds once to
    // float. The backward's element is within
    // |s| ((4 + |x_i - max| + zbar) u p*_i + 4 u |p*_i - [i = t]| + e^-86.99)
    // of (p*_i - [i = t]) s, s = scale / rows.
    const std::vector<Tensor> sets = boundScores();
    const long double cap = -std::log(static_cast<long double>(1e-12f));
    constexpr float kScale = 0.75f;
    onEveryPath([&](kernels::Isa isa) {
        long double worst_fwd = 0;
        long double worst_bwd = 0;
        for (const Tensor& x : sets) {
            const int64_t rows = x.size(0);
            const int64_t d = x.size(-1);
            const Tensor targets = Tensor::randint({rows}, d, 90 + d);
            const float loss = ops::crossEntropy(x, targets).at(0);
            const Tensor grad = ops::crossEntropyBackward(x, targets, kScale);
            const long double s = static_cast<long double>(kScale) / rows;
            long double exact = 0;
            long double row_error = 0;
            for (int64_t r = 0; r < rows; ++r) {
                const float* xr = x.data() + r * d;
                const RowReference ref = referenceRow(xr, d);
                const auto t = static_cast<int64_t>(targets.at(r));
                exact += std::min(ref.lse - (xr[t] - ref.max), cap);
                row_error += (3 + ref.zbar) * kU;
                for (int64_t i = 0; i < d; ++i) {
                    const long double onehot = i == t ? 1 : 0;
                    const long double z = ref.max - xr[i];
                    const long double bound =
                        s * (relativeTerm(4 + z + ref.zbar, ref.p[i]) +
                             4 * kU * std::fabs(ref.p[i] - onehot) +
                             kFlushed);
                    const long double err = std::fabs(
                        grad.data()[r * d + i] - (ref.p[i] - onehot) * s);
                    ASSERT_LE(err, bound)
                        << "width " << d << " row " << r << " col " << i;
                    worst_bwd = std::max(worst_bwd, err / bound);
                }
            }
            exact /= rows;
            const long double bound = kU * std::fabs(exact) + row_error / rows;
            const long double err = std::fabs(loss - exact);
            ASSERT_LE(err, bound) << "width " << d;
            worst_fwd = std::max(worst_fwd, err / bound);
        }
        std::printf("%s: cross-entropy error up to %.3Lg of the bound, "
                    "backward %.3Lg\n",
                    kernels::isaName(isa), worst_fwd, worst_bwd);
    });
}

TEST(RowKernels, LayerNormWithinBoundOfLongDoubleReference)
{
    // Forward: |y - y*| <= 4 u (|gamma| sigma (|mean| + |x - mean|) + |beta|),
    // sigma = 1 / sqrt(var + eps): the moments are double, and the float
    // formula rounds the mean, the difference and three products. Backward
    // (double until the end): |dx - dx*| <= u |dx*| + 2^-36 sigma
    // (|g| + |mean_g| + (|xhat| + sigma |mean|) |mean_gxhat|), g = grad gamma;
    // gamma's and beta's gradients are float sums over the R rows, within
    // gamma_{R+1} of the sum of |terms|.
    uint64_t seed = 110;
    onEveryPath([&](kernels::Isa isa) {
        long double worst[4] = {};
        for (int64_t d : {1, 15, 16, 17, 256, 2049}) {
            for (float offset : {0.0f, 30.0f}) {
                const int64_t rows = 37;
                Tensor x = Tensor::uniform({rows, d}, 2.0f, ++seed);
                float* px = x.data();
                for (int64_t i = 0; i < x.numel(); ++i) px[i] += offset;
                const Tensor gamma = Tensor::uniform({d}, 1.5f, ++seed);
                const Tensor beta = Tensor::uniform({d}, 1.0f, ++seed);
                const Tensor go = Tensor::uniform({rows, d}, 1.0f, ++seed);
                const float eps = 1e-5f;
                const Tensor y = ops::layerNorm(x, gamma, beta, eps);
                const ops::LayerNormGrads grads =
                    ops::layerNormBackward(go, x, gamma, eps);
                std::vector<long double> dgamma(d), dbeta(d), dgamma_mag(d),
                    dbeta_mag(d);
                for (int64_t r = 0; r < rows; ++r) {
                    const float* xr = px + r * d;
                    const float* gr = go.data() + r * d;
                    long double mean = 0;
                    for (int64_t i = 0; i < d; ++i) mean += xr[i];
                    mean /= d;
                    long double var = 0;
                    for (int64_t i = 0; i < d; ++i) {
                        var += (xr[i] - mean) * (xr[i] - mean);
                    }
                    var /= d;
                    const long double sigma = 1 / std::sqrt(var + eps);
                    long double mean_g = 0;
                    long double mean_gx = 0;
                    for (int64_t i = 0; i < d; ++i) {
                        const long double xhat = (xr[i] - mean) * sigma;
                        const long double g =
                            static_cast<long double>(gr[i]) * gamma.at(i);
                        mean_g += g;
                        mean_gx += g * xhat;
                        dgamma[i] += gr[i] * xhat;
                        dgamma_mag[i] += std::fabs(gr[i] * xhat);
                        dbeta[i] += gr[i];
                        dbeta_mag[i] += std::fabs(gr[i]);
                    }
                    mean_g /= d;
                    mean_gx /= d;
                    for (int64_t i = 0; i < d; ++i) {
                        const long double xhat = (xr[i] - mean) * sigma;
                        const long double g =
                            static_cast<long double>(gr[i]) * gamma.at(i);
                        const long double y_exact =
                            xhat * gamma.at(i) + beta.at(i);
                        const long double y_bound =
                            4 * kU *
                            (std::fabs(gamma.at(i)) * sigma *
                                 (std::fabs(mean) + std::fabs(xr[i] - mean)) +
                             std::fabs(beta.at(i)));
                        const long double y_err =
                            std::fabs(y.data()[r * d + i] - y_exact);
                        ASSERT_LE(y_err, y_bound)
                            << "width " << d << " row " << r;
                        worst[0] = std::max(worst[0], y_err / y_bound);
                        const long double dx_exact =
                            sigma * (g - mean_g - xhat * mean_gx);
                        const long double dx_bound =
                            kU * std::fabs(dx_exact) +
                            0x1p-36L * sigma *
                                (std::fabs(g) + std::fabs(mean_g) +
                                 (std::fabs(xhat) + sigma * std::fabs(mean)) *
                                     std::fabs(mean_gx));
                        const long double dx_err = std::fabs(
                            grads.grad_x.data()[r * d + i] - dx_exact);
                        ASSERT_LE(dx_err, dx_bound)
                            << "width " << d << " row " << r;
                        worst[1] = std::max(worst[1], dx_err / dx_bound);
                    }
                }
                const long double gamma_r =
                    (rows + 1) * kU / (1 - (rows + 1) * kU);
                for (int64_t i = 0; i < d; ++i) {
                    const long double dg_err =
                        std::fabs(grads.grad_gamma.at(i) - dgamma[i]);
                    const long double db_err =
                        std::fabs(grads.grad_beta.at(i) - dbeta[i]);
                    ASSERT_LE(dg_err, gamma_r * dgamma_mag[i]) << "width " << d;
                    ASSERT_LE(db_err, gamma_r * dbeta_mag[i]) << "width " << d;
                    worst[2] = std::max(worst[2],
                                        dg_err / (gamma_r * dgamma_mag[i]));
                    worst[3] = std::max(worst[3],
                                        db_err / (gamma_r * dbeta_mag[i]));
                }
            }
        }
        std::printf("%s: layer norm error up to %.3Lg of the bound, backward "
                    "dx %.3Lg, dgamma %.3Lg, dbeta %.3Lg\n",
                    kernels::isaName(isa), worst[0], worst[1], worst[2],
                    worst[3]);
    });
}

TEST(RowKernels, EdgeCasesBehaveAsBefore)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    onEveryPath([&](kernels::Isa) {
        // Masked scores give exactly 0, -inf entries too; a NaN or +inf
        // entry, or a row of -inf only, makes the whole row NaN.
        const Tensor x = Tensor::fromValues(
            {5, 17}, {
                0.5f, -1e9f, 1.0f, -1e9f, 2.0f, -1e9f, 0.0f, -1e9f, 1.0f,
                -1e9f, 0.5f, -1e9f, 0.25f, -1e9f, 3.0f, -1e9f, -1e9f,
                1.0f, -inf, 2.0f, -inf, 0.0f, -inf, -inf, 1.0f, 0.5f,
                -inf, 0.5f, 1.0f, -inf, 2.0f, 0.0f, 1.5f, -inf,
                1.0f, nan, 2.0f, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                1.0f, 2.0f, inf, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                -inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf,
                -inf, -inf, -inf, -inf, -inf, -inf, -inf,
            });
        const Tensor y = ops::softmax(x);
        float sum = 0;
        for (int64_t i = 0; i < 17; ++i) {
            if (x.at(i) == -1e9f) {
                EXPECT_EQ(y.at(i), 0.0f) << i;
            }
            if (x.at(17 + i) == -inf) {
                EXPECT_EQ(y.at(17 + i), 0.0f) << i;
            }
            sum += y.at(i);
            EXPECT_TRUE(std::isnan(y.at(2 * 17 + i))) << i;
            EXPECT_TRUE(std::isnan(y.at(3 * 17 + i))) << i;
            EXPECT_TRUE(std::isnan(y.at(4 * 17 + i))) << i;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-6f);
        // Width 1 gives 1; a zero-row input gives an empty output.
        EXPECT_EQ(ops::softmax(Tensor::fromValues({3, 1}, {-5, 0, 7})).at(2),
                  1.0f);
        EXPECT_EQ(ops::softmax(Tensor::zeros({0, 16})).numel(), 0);
        EXPECT_EQ(ops::layerNorm(Tensor::zeros({0, 16}), Tensor::zeros({16}),
                                 Tensor::zeros({16}), 1e-5f)
                      .numel(),
                  0);
        // Width-1 layer norm is beta.
        EXPECT_EQ(ops::layerNorm(Tensor::fromValues({2, 1}, {3, -4}),
                                 Tensor::full({1}, 2.0f),
                                 Tensor::full({1}, 0.5f), 1e-5f)
                      .at(1),
                  0.5f);

        // The 1e-12 probability floor: a masked or -inf target costs
        // exactly -log(1e-12f), and its gradient is -scale / rows.
        const float cap =
            static_cast<float>(-std::log(static_cast<double>(1e-12f)));
        const Tensor two = Tensor::fromValues({2, 17}, std::vector<float>(
            x.data(), x.data() + 34));
        EXPECT_EQ(ops::crossEntropy(two, Tensor::fromValues({2}, {1, 1})).at(0),
                  cap);
        const Tensor grad = ops::crossEntropyBackward(
            two, Tensor::fromValues({2}, {1, 1}), 3.0f);
        EXPECT_EQ(grad.at(1), -1.5f);
        EXPECT_EQ(grad.at(17 + 1), -1.5f);
        // A NaN row gives a NaN loss and NaN gradients.
        const Tensor nan_row = Tensor::fromValues(
            {1, 17}, std::vector<float>(x.data() + 34, x.data() + 51));
        EXPECT_TRUE(std::isnan(
            ops::crossEntropy(nan_row, Tensor::fromValues({1}, {0})).at(0)));
        EXPECT_TRUE(std::isnan(
            ops::crossEntropyBackward(nan_row, Tensor::fromValues({1}, {0}))
                .at(5)));
    });
}

} // namespace
} // namespace slapo
