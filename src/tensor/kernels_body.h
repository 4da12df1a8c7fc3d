/**
 * @file
 * Bodies of the dispatched kernels (kernels.h). Included only by the
 * per-ISA translation units, which compile it with -O3 at their -march
 * and bind the functions into that ISA's KernelTable.
 *
 * Rules that keep the paths bit-identical and the binary portable:
 *  - Plain float add, multiply, divide and sqrt only, each element's
 *    operations in a fixed order. The build passes -ffp-contract=off, so
 *    the AVX paths never fuse a multiply-add, and without -ffast-math the
 *    compiler may vectorize across independent elements but never
 *    reassociate a sum.
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

} // namespace
} // namespace kernels
} // namespace slapo
