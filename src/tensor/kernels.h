/**
 * @file
 * Run-time ISA dispatch for the hot numeric kernels.
 *
 * The packed-panel GEMM (its pack and its microkernel), the AdamW update,
 * gelu, its backward and tanh, and the row kernels (softmax, cross-entropy
 * and layer norm, forward and backward) are written once as pointer-level
 * chunk functions (kernels_body.h) and compiled three times: for baseline
 * x86-64 (SSE2), x86-64-v3 (AVX2) and x86-64-v4 (AVX-512). Each table also
 * carries the GEMM tile its path was tuned for. The first call to
 * `kernels()` asks cpuid for the widest level the CPU supports and keeps
 * that table.
 *
 * Every path performs the same float operations in the same order: FMA
 * contraction is off, the GEMM's one fused multiply-add per k step is
 * explicit (emulated exactly on SSE2), nothing is reassociated, row sums
 * run in 16 fixed lanes whatever the vector width, and no libm function is
 * called (exp and log are built from multiplies and adds), so outputs are
 * bit-identical across paths (docs/PERFORMANCE.md, "ISA dispatch").
 * Callers keep the shape and target checks, allocation and `parallelFor`
 * split, so chunk boundaries stay a function of the shapes alone.
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
    X86_64_V3, ///< AVX2 and FMA (used only by the GEMM's explicit fmaf)
    X86_64_V4, ///< AVX-512 F/BW/CD/DQ/VL
};

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

/**
 * One `gemm_panel` call: C[0:rows, 0:cols] = seed + A[0:rows, 0:k] @ P,
 * where P is one panel of B (`pack_panel`) and the seed is `bias` or zero.
 */
struct PanelGemm
{
    const float* a; ///< A[i, kk] = a[i * a_row_stride + kk * a_col_stride]
    int64_t a_row_stride;
    int64_t a_col_stride;
    /** One panel from `pack_panel`: P[kk, j] = panel[kk * width + j],
     * width being `cols` rounded up to whole vectors. */
    const float* panel;
    float* c; ///< C[i, j] = c[i * c_row_stride + j]
    int64_t c_row_stride;
    int64_t rows;
    int64_t k;
    int64_t cols;      ///< at most the table's panel_cols
    const float* bias; ///< null, or `cols` floats seeded into every row
};

/** One ISA path's chunk functions. */
struct KernelTable
{
    Isa isa;

    /** GEMM tile of this path, chosen by measurement: floats per vector,
     * rows of C per register tile, and columns per panel (a whole number
     * of vectors, and a multiple of the tile rows). */
    int64_t vector_floats;
    int64_t tile_rows;
    int64_t panel_cols;

    /**
     * Copy the columns [0, cols) of B [k, *] into one panel, width `cols`
     * rounded up to whole vectors: panel[kk * width + j] = B[kk, j], and
     * zero for cols <= j < width. B[kk, j] is src[kk * ld + j], or
     * src[j * ld + kk] when `transposed`.
     */
    void (*pack_panel)(const float* src, int64_t ld, bool transposed,
                       int64_t k, int64_t cols, float* panel);

    /**
     * Run one PanelGemm. Each C element is its seed followed by one
     * correctly rounded fused multiply-add per k step, k ascending,
     * c = fmaf(A[i, kk], P[kk, j], c), written once: the same operations
     * in the same order on every path (SSE2 emulates the fmaf exactly),
     * for any split of rows and panels across calls.
     */
    void (*gemm_panel)(const PanelGemm& g);

    /** AdamW update of n elements: param, grad, first and second moment.
     * Returns sum(grad^2) over them, summed in 16 double lanes folded
     * pairwise. */
    double (*adamw)(const AdamWStep& step, float* param, const float* grad,
                    float* m, float* v, int64_t n);

    /** y = gelu(x) (tanh approximation) over n elements; y may equal x. */
    void (*gelu)(const float* x, float* y, int64_t n);

    /** out = grad * gelu'(x) over n elements. */
    void (*gelu_backward)(const float* grad, const float* x, float* out,
                          int64_t n);

    /** y = tanh(x) over n elements; y may equal x. */
    void (*tanh)(const float* x, float* y, int64_t n);

    // Row kernels over `rows` contiguous rows of width d.

    /** y[r, :] = softmax(x[r, :]); y may equal x. */
    void (*softmax)(const float* x, float* y, int64_t rows, int64_t d);

    /**
     * loss[r] = min(logsumexp(x[r, :]) - x[r, t], -log(1e-12f)) with
     * t = targets[r], which the caller has checked is in [0, d). No
     * probability row is written.
     */
    void (*cross_entropy)(const float* x, const float* targets, double* loss,
                          int64_t rows, int64_t d);

    /** grad[r, :] = (softmax(x[r, :]) - onehot(targets[r])) * scale. */
    void (*cross_entropy_backward)(const float* x, const float* targets,
                                   float scale, float* grad, int64_t rows,
                                   int64_t d);

    /** y[r, :] = (x[r, :] - mean) / sqrt(var + eps) * gamma + beta. */
    void (*layer_norm)(const float* x, const float* gamma, const float* beta,
                       float eps, float* y, int64_t rows, int64_t d);

    /** dx[r, :] of layer_norm for grad[r, :], and each row's
     * grad * xhat and grad added to dgamma and dbeta, rows in order. */
    void (*layer_norm_backward)(const float* grad, const float* x,
                                const float* gamma, float eps, float* dx,
                                float* dgamma, float* dbeta, int64_t rows,
                                int64_t d);
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
