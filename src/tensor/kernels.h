/**
 * @file
 * Run-time ISA dispatch for the hot numeric kernels.
 *
 * The GEMM microkernel, the transpose pack behind every `linear` GEMM and
 * the AdamW update are written once as pointer-level chunk functions
 * (kernels_body.h) and compiled three times: for baseline x86-64 (SSE2),
 * x86-64-v3 (AVX2) and x86-64-v4 (AVX-512). The first call to `kernels()`
 * asks cpuid for the widest level the CPU supports and keeps that table.
 *
 * Every path performs the same float operations in the same order: FMA
 * contraction is off and nothing is reassociated, so outputs are
 * bit-identical across paths (docs/PERFORMANCE.md, "ISA dispatch").
 * Callers keep the shape checks, allocation and `parallelFor` split, so
 * chunk boundaries stay a function of the shapes alone.
 *
 * This header is included by the per-ISA translation units, so it holds
 * declarations only: anything inline here could be emitted out of line in
 * an AVX-512 object and picked by the linker for every caller.
 */
#pragma once

#include <cstdint>

namespace slapo {
namespace kernels {

/** The x86-64 micro-architecture levels a kernel table is built for. */
enum class Isa
{
    X86_64,    ///< baseline: SSE2
    X86_64_V3, ///< AVX2 (and FMA, which the build keeps uncontracted)
    X86_64_V4, ///< AVX-512 F/BW/CD/DQ/VL
};

/** Rows of C one GEMM microkernel tile accumulates together; callers
 * split a GEMM into row ranges at multiples of it. */
constexpr int64_t kGemmRowTile = 4;

/** Edge of the square tiles `transpose_tiles` walks. */
constexpr int64_t kTransposeTile = 32;

/** One AdamW step's hyper-parameters, bias corrections included. */
struct AdamWStep
{
    float lr;
    float beta1;
    float beta2;
    float eps;
    float weight_decay;
    float bias_correction1; ///< 1 - beta1^t
    float bias_correction2; ///< 1 - beta2^t
};

/** One ISA path's chunk functions. */
struct KernelTable
{
    Isa isa;

    /**
     * C[i0:i1, :] = A[i0:i1, :] @ B (+ bias), all row-major contiguous:
     * A is [m, k], B is [k, n], C is [m, n]. When `bias` is non-null it is
     * a length-n row seeded into every output row's accumulator. Each C
     * element is a float sum over k ascending, written once.
     */
    void (*gemm_rows)(const float* A, const float* B, float* C, int64_t i0,
                      int64_t i1, int64_t k, int64_t n, const float* bias);

    /**
     * dst[c, r] = src[r, c] for src [rows, cols], restricted to the column
     * tiles [tile_lo, tile_hi) of width kTransposeTile.
     */
    void (*transpose_tiles)(const float* src, float* dst, int64_t rows,
                            int64_t cols, int64_t tile_lo, int64_t tile_hi);

    /** AdamW update of n elements: param, grad, first and second moment. */
    void (*adamw)(const AdamWStep& step, float* param, const float* grad,
                  float* m, float* v, int64_t n);
};

/** The active table: the widest path the CPU supports, chosen at first
 * use. Cheap enough to call once per kernel invocation. */
const KernelTable& kernels();

/** "x86-64", "x86-64-v3" or "x86-64-v4". */
const char* isaName(Isa isa);

/** True when this CPU (and OS) can run the path. */
bool cpuSupports(Isa isa);

/**
 * Make `isa` the active path so tests can compare paths bit for bit.
 * Throws SlapoError when the CPU lacks it. Tests only: outside them the
 * path comes from cpuid and is never configured.
 */
void setIsaForTesting(Isa isa);

namespace detail {
// One table per ISA translation unit (kernels_x86_64*.cc).
extern const KernelTable kX86_64Table;
extern const KernelTable kX86_64V3Table;
extern const KernelTable kX86_64V4Table;
} // namespace detail

} // namespace kernels
} // namespace slapo
