/**
 * @file
 * Bodies of the dispatched kernels (kernels.h). Included only by the
 * per-ISA translation units, which compile it with -O3 at their -march
 * and bind the functions into that ISA's KernelTable.
 *
 * Rules that keep the paths bit-identical and the binary portable:
 *  - Plain float add, subtract, multiply, divide and sqrt only, plus
 *    float<->int conversions (float->int truncating) and bit moves, each
 *    element's operations in a fixed order. The build passes
 *    -ffp-contract=off, so the AVX paths never fuse a multiply-add, and
 *    without -ffast-math the compiler may vectorize across independent
 *    elements but never reassociate a sum.
 *  - No libm: every IEEE basic operation rounds the same in every ISA,
 *    but libm's functions are glibc's own and scalar. tanh and exp are
 *    written out below instead. The isa_symbols test fails on any
 *    undefined symbol in the objects, which catches a std::tanh here.
 *    The objects are built with -fno-trapping-math, so GCC may evaluate
 *    both sides of a float select and vectorize the loop; that changes
 *    no result.
 *  - Internal linkage only: everything here lives in an anonymous
 *    namespace and calls no inline or template function from another
 *    header (no std::min, no std::sqrt). An out-of-line copy of a shared
 *    inline function in an AVX-512 object could otherwise be the one the
 *    linker keeps, and an AVX2-only CPU would die on it with SIGILL. The
 *    isa_symbols test checks the objects for such weak symbols.
 */
#pragma once

#include <cstdint>

#include "tensor/kernels.h"

namespace slapo {
namespace kernels {
namespace {

int64_t
minIndex(int64_t a, int64_t b)
{
    return a < b ? a : b;
}

// --- blocked GEMM microkernel --------------------------------------------
//
// The one microkernel behind matmul, linear forward, and both linear
// backward GEMMs. Output is tiled kGemmRowTile x kColTile; the tile lives
// in registers / L1 stack while the k loop streams A columns and B rows
// through it, so every C element is written exactly once and every B row
// is reused kGemmRowTile times per pass. Accumulation is float, k
// ascending: a summation order that depends only on the shapes, never on
// threading or the ISA.

constexpr int64_t kColTile = 64; // accumulator width in floats (N tile)

void
gemmRows(const float* A, const float* B, float* C, int64_t i0, int64_t i1,
         int64_t k, int64_t n, const float* bias)
{
    float acc[kGemmRowTile][kColTile];
    for (int64_t i = i0; i < i1; i += kGemmRowTile) {
        const int64_t rt = minIndex(kGemmRowTile, i1 - i);
        for (int64_t j = 0; j < n; j += kColTile) {
            const int64_t jt = minIndex(kColTile, n - j);
            for (int64_t r = 0; r < rt; ++r) {
                for (int64_t c = 0; c < jt; ++c) {
                    acc[r][c] = bias ? bias[j + c] : 0.0f;
                }
            }
            if (rt == kGemmRowTile && jt == kColTile) {
                // Full tile: fixed trip counts so the compiler keeps the
                // j loop vectorized and the four A broadcasts in registers.
                for (int64_t kk = 0; kk < k; ++kk) {
                    const float* brow = B + kk * n + j;
                    const float a0 = A[(i + 0) * k + kk];
                    const float a1 = A[(i + 1) * k + kk];
                    const float a2 = A[(i + 2) * k + kk];
                    const float a3 = A[(i + 3) * k + kk];
                    for (int64_t c = 0; c < kColTile; ++c) {
                        const float bv = brow[c];
                        acc[0][c] += a0 * bv;
                        acc[1][c] += a1 * bv;
                        acc[2][c] += a2 * bv;
                        acc[3][c] += a3 * bv;
                    }
                }
            } else {
                for (int64_t kk = 0; kk < k; ++kk) {
                    const float* brow = B + kk * n + j;
                    for (int64_t r = 0; r < rt; ++r) {
                        const float ar = A[(i + r) * k + kk];
                        for (int64_t c = 0; c < jt; ++c) {
                            acc[r][c] += ar * brow[c];
                        }
                    }
                }
            }
            for (int64_t r = 0; r < rt; ++r) {
                float* crow = C + (i + r) * n + j;
                for (int64_t c = 0; c < jt; ++c) {
                    crow[c] = acc[r][c];
                }
            }
        }
    }
}

/** Blocked transpose of column tiles [tile_lo, tile_hi): 32x32 tiles keep
 * both sides cache-resident. */
void
transposeTiles(const float* src, float* dst, int64_t rows, int64_t cols,
               int64_t tile_lo, int64_t tile_hi)
{
    for (int64_t ct = tile_lo; ct < tile_hi; ++ct) {
        const int64_t c0 = ct * kTransposeTile;
        const int64_t c1 = minIndex(cols, c0 + kTransposeTile);
        for (int64_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
            const int64_t r1 = minIndex(rows, r0 + kTransposeTile);
            for (int64_t r = r0; r < r1; ++r) {
                for (int64_t c = c0; c < c1; ++c) {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/**
 * Decoupled-weight-decay Adam over n elements. The hyper-parameters are
 * copied into locals first: `step` is a reference, and stores through the
 * float pointers could alias it, which would force a reload per element
 * and block vectorization.
 */
void
adamwUpdate(const AdamWStep& step, float* param, const float* grad, float* m,
            float* v, int64_t n)
{
    const float lr = step.lr;
    const float beta1 = step.beta1;
    const float beta2 = step.beta2;
    const float one_minus_beta1 = 1.0f - beta1;
    const float one_minus_beta2 = 1.0f - beta2;
    const float eps = step.eps;
    const float weight_decay = step.weight_decay;
    const float bc1 = step.bias_correction1;
    const float bc2 = step.bias_correction2;
    for (int64_t j = 0; j < n; ++j) {
        const float g = grad[j];
        const float mj = beta1 * m[j] + one_minus_beta1 * g;
        const float vj = beta2 * v[j] + one_minus_beta2 * g * g;
        m[j] = mj;
        v[j] = vj;
        const float m_hat = mj / bc1;
        const float v_hat = vj / bc2;
        param[j] -= lr * (m_hat / (__builtin_sqrtf(v_hat) + eps) +
                          weight_decay * param[j]);
    }
}

// --- gelu and tanh ----------------------------------------------------------
//
// One float tanh serves tanh, gelu and gelu's backward. It stays within
// 1 ulp of a double-precision tanh over [-12, 12] (libm's tanhf is off by
// up to 2). Each loop body is branch-free, so the compiler vectorizes it,
// and its bits depend on the input alone. Outputs may alias inputs: each
// element is read before it is written and never revisited.

constexpr float kGeluC = 0.7978845608028654f; // sqrt(2/pi)
constexpr float kGeluCubic = 0.044715f;

float
floatFromBits(uint32_t u)
{
    return __builtin_bit_cast(float, u);
}

uint32_t
bitsOf(float f)
{
    return __builtin_bit_cast(uint32_t, f);
}

/** e^z for z in [0, 20]: z = n ln2 + r with a two-part (Cody-Waite) ln2
 * so r is nearly exact, a degree-7 polynomial for e^r on |r| <= ln2/2,
 * and 2^n built from exponent bits. */
float
expNonNegative(float z)
{
    constexpr float kLog2e = 1.44269504f;
    // ln2 = kLn2Hi + kLn2Lo; kLn2Hi has 9 significant bits, so n * kLn2Hi
    // is exact for the n < 30 seen here.
    constexpr float kLn2Hi = 0.693359375f;
    constexpr float kLn2Lo = -2.12194440e-4f;
    const int32_t n = static_cast<int32_t>(z * kLog2e + 0.5f);
    const float nf = static_cast<float>(n);
    const float r = (z - nf * kLn2Hi) - nf * kLn2Lo;
    float q = 1.98909808698e-4f;
    q = q * r + 1.3933641032e-3f;
    q = q * r + 8.33331093445e-3f;
    q = q * r + 4.1666465006e-2f;
    q = q * r + 1.66666666816e-1f;
    q = q * r + 5.00000001346e-1f;
    const float er = r * r * q + r + 1.0f;
    return er * floatFromBits(static_cast<uint32_t>(n + 127) << 23);
}

/**
 * tanh on |x|, sign copied back from the input's bits, so tanh(-0) = -0.
 * Below 0.625 an odd polynomial, x + x^3 P(x^2), which returns denormals
 * unchanged and propagates NaN; above, 1 - 2 / (e^{2|x|} + 1), which is
 * 1.0f from |x| ~ 9.01 on, so 2|x| is clamped to 20 (a NaN clamps too;
 * the polynomial side carries it). Both sides are computed and one is
 * selected by mask.
 */
float
tanhFloat(float x)
{
    const uint32_t ix = bitsOf(x);
    const float a = floatFromBits(ix & 0x7fffffffu);
    const float s = a * a;
    float p = -6.09671416591e-3f;
    p = p * s + 2.09971789991e-2f;
    p = p * s + -5.38509095785e-2f;
    p = p * s + 1.3332769737e-1f;
    p = p * s + -3.33333289441e-1f;
    const float small = a + a * s * p;
    const float z = a + a < 20.0f ? a + a : 20.0f;
    const float large = 1.0f - 2.0f / (expNonNegative(z) + 1.0f);
    // A float ?: here would stay a branch; a bit mask vectorizes.
    const uint32_t use_large = 0u - static_cast<uint32_t>(a >= 0.625f);
    return floatFromBits((bitsOf(large) & use_large) |
                         (bitsOf(small) & ~use_large) | (ix & 0x80000000u));
}

/** The tanh argument of the tanh-approximated GeLU. */
float
geluInner(float x)
{
    return kGeluC * (x + kGeluCubic * x * x * x);
}

void
tanhRange(const float* x, float* y, int64_t n)
{
    for (int64_t i = 0; i < n; ++i) y[i] = tanhFloat(x[i]);
}

void
geluRange(const float* x, float* y, int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        const float v = x[i];
        y[i] = 0.5f * v * (1.0f + tanhFloat(geluInner(v)));
    }
}

void
geluBackwardRange(const float* grad, const float* x, float* out, int64_t n)
{
    for (int64_t i = 0; i < n; ++i) {
        const float v = x[i];
        const float t = tanhFloat(geluInner(v));
        const float dinner = kGeluC * (1.0f + 3.0f * kGeluCubic * v * v);
        const float d = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * dinner;
        out[i] = grad[i] * d;
    }
}

} // namespace
} // namespace kernels
} // namespace slapo
