#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "support/parallel.h"
#include "tensor/alloc.h"
#include "tensor/kernels.h"

namespace slapo {
namespace ops {

namespace {

/** Elementwise chunk size: large enough to amortize dispatch, fixed so
 * chunk boundaries (and thus results) never depend on the thread count. */
constexpr int64_t kElemGrain = 1 << 14;

/** Fixed per-chunk row count for row-parallel kernels (softmax, norm). */
int64_t
rowGrain(int64_t row_width)
{
    return std::max<int64_t>(1, (1 << 14) / std::max<int64_t>(1, row_width));
}

/** Strides (in elements) of a row-major contiguous shape. */
std::vector<int64_t>
stridesOf(const Shape& shape)
{
    std::vector<int64_t> strides(shape.size(), 1);
    for (int64_t i = static_cast<int64_t>(shape.size()) - 2; i >= 0; --i) {
        strides[i] = strides[i + 1] * shape[i + 1];
    }
    return strides;
}

/**
 * Same-shape elementwise binary core: po[i] = f(pa[i], pb[i]). `po` may
 * alias `pa` (the planner's in-place path): element i is read before it
 * is written and never revisited, so aliasing is bit-identical to a
 * fresh output.
 */
template <typename F>
void
binarySameShapeInto(const float* pa, const float* pb, float* po, int64_t n,
                    F&& f)
{
    support::parallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) po[i] = f(pa[i], pb[i]);
    });
}

/** Apply an elementwise binary functor with numpy broadcasting. Every
 * output element is written exactly once, so the output is allocated
 * uninitialized. */
template <typename F>
Tensor
broadcastBinary(const Tensor& a, const Tensor& b, F&& f)
{
    const Shape out_shape = broadcastShapes(a.shape(), b.shape());
    Tensor out = Tensor::empty(out_shape);
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    const int64_t n = out.numel();

    // Fast path: identical shapes — one contiguous pass, no index math.
    if (a.shape() == b.shape()) {
        binarySameShapeInto(pa, pb, po, n, f);
        return out;
    }
    // Fast path: one operand is a single value (scale/shift tensors).
    if (b.numel() == 1) {
        const float s = pb[0];
        support::parallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) po[i] = f(pa[i], s);
        });
        return out;
    }
    if (a.numel() == 1) {
        const float s = pa[0];
        support::parallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) po[i] = f(s, pb[i]);
        });
        return out;
    }

    // Genuine broadcast: precompute per-dim effective strides (0 on
    // broadcast dims) and walk an odometer index per chunk instead of
    // doing a div/mod per element.
    const int64_t rank = static_cast<int64_t>(out_shape.size());
    auto aligned = [&](const Shape& s) {
        Shape r(rank, 1);
        std::copy(s.begin(), s.end(), r.begin() + (rank - s.size()));
        return r;
    };
    const Shape sa = aligned(a.shape());
    const Shape sb = aligned(b.shape());
    const auto stra = stridesOf(sa);
    const auto strb = stridesOf(sb);
    const auto stro = stridesOf(out_shape);
    std::vector<int64_t> ea(rank), eb(rank);
    for (int64_t d = 0; d < rank; ++d) {
        ea[d] = sa[d] == 1 ? 0 : stra[d];
        eb[d] = sb[d] == 1 ? 0 : strb[d];
    }

    support::parallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        std::vector<int64_t> idx(rank);
        int64_t rem = lo, ia = 0, ib = 0;
        for (int64_t d = 0; d < rank; ++d) {
            idx[d] = rem / stro[d];
            rem %= stro[d];
            ia += idx[d] * ea[d];
            ib += idx[d] * eb[d];
        }
        for (int64_t flat = lo; flat < hi; ++flat) {
            po[flat] = f(pa[ia], pb[ib]);
            for (int64_t d = rank - 1; d >= 0; --d) {
                if (++idx[d] < out_shape[d]) {
                    ia += ea[d];
                    ib += eb[d];
                    break;
                }
                idx[d] = 0;
                ia -= (out_shape[d] - 1) * ea[d];
                ib -= (out_shape[d] - 1) * eb[d];
            }
        }
    });
    return out;
}

/** Elementwise unary core: po[i] = f(pa[i]); po may alias pa. */
template <typename F>
void
unaryInto(const float* pa, float* po, int64_t n, F&& f)
{
    support::parallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            po[i] = f(pa[i]);
        }
    });
}

template <typename F>
Tensor
unary(const Tensor& a, F&& f)
{
    Tensor out = Tensor::empty(a.shape());
    unaryInto(a.data(), out.data(), a.numel(), f);
    return out;
}

/** Run a dispatched elementwise chunk function (kernels.h) over the same
 * kElemGrain chunks as unaryInto; po may alias pa. */
void
dispatchedUnaryInto(void (*kernel)(const float*, float*, int64_t),
                    const float* pa, float* po, int64_t n)
{
    support::parallelFor(0, n, kElemGrain, [&](int64_t lo, int64_t hi) {
        kernel(pa + lo, po + lo, hi - lo);
    });
}

Tensor
dispatchedUnary(void (*kernel)(const float*, float*, int64_t), const Tensor& a)
{
    Tensor out = Tensor::empty(a.shape());
    dispatchedUnaryInto(kernel, a.data(), out.data(), a.numel());
    return out;
}

// Shared by relu and its in-place twin, so both paths run identical
// per-element arithmetic.
inline float
reluFn(float x)
{
    return x > 0.0f ? x : 0.0f;
}

} // namespace

Tensor
add(const Tensor& a, const Tensor& b)
{
    return broadcastBinary(a, b, [](float x, float y) { return x + y; });
}

Tensor
sub(const Tensor& a, const Tensor& b)
{
    return broadcastBinary(a, b, [](float x, float y) { return x - y; });
}

Tensor
mul(const Tensor& a, const Tensor& b)
{
    return broadcastBinary(a, b, [](float x, float y) { return x * y; });
}

Tensor
div(const Tensor& a, const Tensor& b)
{
    return broadcastBinary(a, b, [](float x, float y) { return x / y; });
}

// In-place binary twins: same-shape only (the planner never marks a
// broadcasting node in-place); `a` is both input 0 and the output.

void
addInPlace(Tensor& a, const Tensor& b)
{
    SLAPO_CHECK(a.shape() == b.shape(), "addInPlace: shape mismatch");
    binarySameShapeInto(a.data(), b.data(), a.data(), a.numel(),
                        [](float x, float y) { return x + y; });
}

void
subInPlace(Tensor& a, const Tensor& b)
{
    SLAPO_CHECK(a.shape() == b.shape(), "subInPlace: shape mismatch");
    binarySameShapeInto(a.data(), b.data(), a.data(), a.numel(),
                        [](float x, float y) { return x - y; });
}

void
mulInPlace(Tensor& a, const Tensor& b)
{
    SLAPO_CHECK(a.shape() == b.shape(), "mulInPlace: shape mismatch");
    binarySameShapeInto(a.data(), b.data(), a.data(), a.numel(),
                        [](float x, float y) { return x * y; });
}

void
divInPlace(Tensor& a, const Tensor& b)
{
    SLAPO_CHECK(a.shape() == b.shape(), "divInPlace: shape mismatch");
    binarySameShapeInto(a.data(), b.data(), a.data(), a.numel(),
                        [](float x, float y) { return x / y; });
}

Tensor
scale(const Tensor& a, float factor)
{
    return unary(a, [factor](float x) { return x * factor; });
}

Tensor
addScalar(const Tensor& a, float value)
{
    return unary(a, [value](float x) { return x + value; });
}

void
scaleInPlace(Tensor& a, float factor)
{
    unaryInto(a.data(), a.data(), a.numel(),
              [factor](float x) { return x * factor; });
}

void
addScalarInPlace(Tensor& a, float value)
{
    unaryInto(a.data(), a.data(), a.numel(),
              [value](float x) { return x + value; });
}

Tensor
gelu(const Tensor& a)
{
    return dispatchedUnary(kernels::kernels().gelu, a);
}

Tensor
geluBackward(const Tensor& grad, const Tensor& a)
{
    SLAPO_CHECK(grad.shape() == a.shape(), "geluBackward: shape mismatch");
    Tensor out = Tensor::empty(a.shape());
    const float* pg = grad.data();
    const float* pa = a.data();
    float* po = out.data();
    const auto gelu_backward = kernels::kernels().gelu_backward;
    support::parallelFor(0, a.numel(), kElemGrain,
                         [&](int64_t lo, int64_t hi) {
        gelu_backward(pg + lo, pa + lo, po + lo, hi - lo);
    });
    return out;
}

Tensor
relu(const Tensor& a)
{
    return unary(a, reluFn);
}

void
geluInPlace(Tensor& a)
{
    dispatchedUnaryInto(kernels::kernels().gelu, a.data(), a.data(), a.numel());
}

void
reluInPlace(Tensor& a)
{
    unaryInto(a.data(), a.data(), a.numel(), reluFn);
}

void
tanhInPlace(Tensor& a)
{
    dispatchedUnaryInto(kernels::kernels().tanh, a.data(), a.data(), a.numel());
}

Tensor
reluBackward(const Tensor& grad, const Tensor& a)
{
    SLAPO_CHECK(grad.shape() == a.shape(), "reluBackward: shape mismatch");
    return broadcastBinary(grad, a,
                           [](float g, float x) { return x > 0.0f ? g : 0.0f; });
}

Tensor
tanhOp(const Tensor& a)
{
    return dispatchedUnary(kernels::kernels().tanh, a);
}

Tensor
tanhBackward(const Tensor& grad, const Tensor& y)
{
    return broadcastBinary(grad, y,
                           [](float g, float t) { return g * (1.0f - t * t); });
}

Tensor
clampScalar(const Tensor& a, float lo, float hi)
{
    return unary(a, [lo, hi](float x) { return std::min(std::max(x, lo), hi); });
}

Tensor
rangeMask(const Tensor& a, float lo, float hi)
{
    return unary(a, [lo, hi](float x) { return x >= lo && x < hi ? 1.0f : 0.0f; });
}

void
clampScalarInPlace(Tensor& a, float lo, float hi)
{
    unaryInto(a.data(), a.data(), a.numel(),
              [lo, hi](float x) { return std::min(std::max(x, lo), hi); });
}

void
rangeMaskInPlace(Tensor& a, float lo, float hi)
{
    unaryInto(a.data(), a.data(), a.numel(),
              [lo, hi](float x) { return x >= lo && x < hi ? 1.0f : 0.0f; });
}

namespace {

/** Additive causal mask applied to a buffer in place (shared by the
 * copy-then-mask kernel and the planner's in-place twin). */
void
causalMaskApply(float* po, int64_t batch, int64_t sq, int64_t sk)
{
    for (int64_t b = 0; b < batch; ++b) {
        for (int64_t i = 0; i < sq; ++i) {
            for (int64_t j = i + 1; j < sk; ++j) {
                po[(b * sq + i) * sk + j] += -1e9f;
            }
        }
    }
}

} // namespace

Tensor
causalMask(const Tensor& scores)
{
    SLAPO_CHECK(scores.dim() >= 2, "causalMask: needs at least 2-D");
    const int64_t sq = scores.size(-2);
    const int64_t sk = scores.size(-1);
    Tensor out = scores.clone();
    causalMaskApply(out.data(), scores.numel() / (sq * sk), sq, sk);
    return out;
}

void
causalMaskInPlace(Tensor& scores)
{
    SLAPO_CHECK(scores.dim() >= 2, "causalMask: needs at least 2-D");
    const int64_t sq = scores.size(-2);
    const int64_t sk = scores.size(-1);
    causalMaskApply(scores.data(), scores.numel() / (sq * sk), sq, sk);
}

namespace {

/** Clipped-relative-distance bucket index for relPosBias. */
int64_t
relBucket(int64_t i, int64_t j, int64_t buckets)
{
    int64_t rel = j - i;
    rel = std::min(std::max(rel, -(buckets - 1)), buckets - 1);
    return rel + buckets - 1;
}

} // namespace

Tensor
relPosBias(const Tensor& scores, const Tensor& table)
{
    SLAPO_CHECK(scores.dim() == 4 && table.dim() == 2,
                "relPosBias: expects [B,h,Sq,Sk] scores and [h, 2b-1] table");
    const int64_t B = scores.size(0), H = scores.size(1);
    const int64_t Sq = scores.size(2), Sk = scores.size(3);
    SLAPO_CHECK(table.size(0) == H,
                "relPosBias: table heads " << table.size(0) << " != scores "
                                           << H);
    SLAPO_CHECK(table.size(1) % 2 == 1, "relPosBias: table width must be odd");
    const int64_t buckets = (table.size(1) + 1) / 2;

    Tensor out = scores.clone();
    float* po = out.data();
    const float* pt = table.data();
    for (int64_t b = 0; b < B; ++b) {
        for (int64_t h = 0; h < H; ++h) {
            for (int64_t i = 0; i < Sq; ++i) {
                for (int64_t j = 0; j < Sk; ++j) {
                    po[((b * H + h) * Sq + i) * Sk + j] +=
                        pt[h * table.size(1) + relBucket(i, j, buckets)];
                }
            }
        }
    }
    return out;
}

Tensor
relPosBiasTableBackward(const Tensor& grad, const Shape& table_shape)
{
    SLAPO_CHECK(grad.dim() == 4 && table_shape.size() == 2,
                "relPosBiasTableBackward: bad shapes");
    Tensor table_grad = Tensor::zeros(table_shape);
    const int64_t B = grad.size(0), H = grad.size(1);
    const int64_t Sq = grad.size(2), Sk = grad.size(3);
    const int64_t buckets = (table_shape[1] + 1) / 2;
    const float* pg = grad.data();
    float* pt = table_grad.data();
    for (int64_t b = 0; b < B; ++b) {
        for (int64_t h = 0; h < H; ++h) {
            for (int64_t i = 0; i < Sq; ++i) {
                for (int64_t j = 0; j < Sk; ++j) {
                    pt[h * table_shape[1] + relBucket(i, j, buckets)] +=
                        pg[((b * H + h) * Sq + i) * Sk + j];
                }
            }
        }
    }
    return table_grad;
}

Tensor
sumAll(const Tensor& a)
{
    double acc = 0.0;
    const float* pa = a.data();
    for (int64_t i = 0; i < a.numel(); ++i) {
        acc += pa[i];
    }
    return Tensor::fromValues({1}, {static_cast<float>(acc)});
}

Tensor
meanAll(const Tensor& a)
{
    Tensor s = sumAll(a);
    s.scaleInPlace(1.0f / static_cast<float>(a.numel()));
    return s;
}

Tensor
reduceToShape(const Tensor& grad_out, const Shape& shape)
{
    if (grad_out.shape() == shape) {
        return grad_out.clone();
    }
    const int64_t rank = grad_out.dim();
    Shape aligned(rank, 1);
    std::copy(shape.begin(), shape.end(), aligned.begin() + (rank - shape.size()));

    const float* pg = grad_out.data();
    const int64_t n = grad_out.numel();

    // Classify the reduced dims (aligned extent 1 where the gradient
    // extent is > 1). Two contiguous layouts get fast loops over an
    // uninitialized output (first touch assigns, later rows accumulate);
    // anything with interior broadcast dims falls back to the odometer
    // walk, whose scatter destinations repeat and so needs zeros.
    std::vector<bool> reduced(rank);
    int64_t first_kept = rank, last_kept = -1;
    int64_t first_reduced = rank, last_reduced = -1;
    for (int64_t d = 0; d < rank; ++d) {
        reduced[d] = aligned[d] == 1 && grad_out.size(d) != 1;
        if (reduced[d]) {
            first_reduced = std::min(first_reduced, d);
            last_reduced = d;
        } else {
            first_kept = std::min(first_kept, d);
            last_kept = d;
        }
    }

    if (last_reduced >= 0 && last_reduced < first_kept) {
        // Pure leading reduce (e.g. grad [B, S, D] -> bias [D]): every
        // output element sums `outer` contiguous rows. The o-loop order is
        // fixed (row 0 assigns, rows 1.. accumulate — the same ascending
        // summation as before); chunks split the contiguous inner axis,
        // so results are bit-identical at any thread count.
        Tensor out = Tensor::empty(aligned);
        float* po = out.data();
        const int64_t inner = out.numel();
        const int64_t outer = n / inner;
        if (outer == 0) { // zero-extent reduced dim: nothing to sum
            out.fill_(0.0f);
            return out.reshape(shape);
        }
        support::parallelFor(0, inner, kElemGrain,
                             [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
                po[i] = pg[i];
            }
            for (int64_t o = 1; o < outer; ++o) {
                const float* row = pg + o * inner;
                for (int64_t i = lo; i < hi; ++i) {
                    po[i] += row[i];
                }
            }
        });
        return out.reshape(shape);
    }
    if (last_kept >= 0 && last_kept < first_reduced) {
        // Pure trailing reduce (e.g. grad [B, S, D] -> [B, 1, 1]): each
        // output element is one independent contiguous row sum.
        Tensor out = Tensor::empty(aligned);
        float* po = out.data();
        int64_t inner = 1;
        for (int64_t d = first_reduced; d < rank; ++d) {
            inner *= grad_out.size(d);
        }
        const int64_t outer = n / inner;
        support::parallelFor(0, outer, rowGrain(inner),
                             [&](int64_t lo, int64_t hi) {
            for (int64_t o = lo; o < hi; ++o) {
                const float* row = pg + o * inner;
                float acc = 0.0f;
                for (int64_t i = 0; i < inner; ++i) acc += row[i];
                po[o] = acc;
            }
        });
        return out.reshape(shape);
    }

    // General case (interior/mixed broadcast dims): serial odometer walk —
    // a scatter-add whose destination repeats, kept serial for determinism.
    Tensor out = Tensor::zeros(aligned);
    float* po = out.data();
    const auto stro = stridesOf(grad_out.shape());
    const auto stra = stridesOf(aligned);
    std::vector<int64_t> eff(rank);
    for (int64_t d = 0; d < rank; ++d) {
        eff[d] = aligned[d] == 1 ? 0 : stra[d];
    }
    std::vector<int64_t> idx(rank, 0);
    int64_t ia = 0;
    for (int64_t flat = 0; flat < n; ++flat) {
        po[ia] += pg[flat];
        for (int64_t d = rank - 1; d >= 0; --d) {
            if (++idx[d] < grad_out.size(d)) {
                ia += eff[d];
                break;
            }
            idx[d] = 0;
            ia -= (grad_out.size(d) - 1) * eff[d];
        }
    }
    return out.reshape(shape);
}

namespace {

// --- blocked GEMM ---------------------------------------------------------
//
// matmul, linear forward, and both linear backward GEMMs run the one
// dispatched microkernel (kernels.h) over row tiles. Each C element is a
// float sum over k ascending whose order depends only on the shapes, so
// any split of rows across threads, and any ISA path, gives the same bits.

constexpr int64_t kRowTile = kernels::kGemmRowTile;

/** Row-tile grain sized so one chunk is ~2^18 flops (thread-independent). */
int64_t
gemmGrain(int64_t k, int64_t n)
{
    const int64_t tile_flops = 2 * kRowTile * std::max<int64_t>(1, k) *
                               std::max<int64_t>(1, n);
    return std::max<int64_t>(1, (1 << 18) / tile_flops);
}

/**
 * Parallel C = A @ B (+ bias) over row tiles of one contiguous problem.
 */
void
gemmParallel(const float* A, const float* B, float* C, int64_t m, int64_t k,
             int64_t n, const float* bias)
{
    const auto gemm_rows = kernels::kernels().gemm_rows;
    const int64_t row_tiles = (m + kRowTile - 1) / kRowTile;
    support::parallelFor(0, row_tiles, gemmGrain(k, n),
                         [&](int64_t lo, int64_t hi) {
        gemm_rows(A, B, C, lo * kRowTile, std::min(m, hi * kRowTile), k, n,
                  bias);
    });
}

/**
 * Blocked transpose pack: dst[c, r] = src[r, c] for src [rows, cols].
 * Used to present W^T (linear forward) and g^T (weight gradient) to the
 * row-major microkernel.
 */
void
transposePack(const float* src, float* dst, int64_t rows, int64_t cols)
{
    const auto transpose_tiles = kernels::kernels().transpose_tiles;
    const int64_t col_tiles =
        (cols + kernels::kTransposeTile - 1) / kernels::kTransposeTile;
    support::parallelFor(0, col_tiles, 4, [&](int64_t lo, int64_t hi) {
        transpose_tiles(src, dst, rows, cols, lo, hi);
    });
}

} // namespace

Tensor
matmul(const Tensor& a, const Tensor& b)
{
    SLAPO_CHECK(a.dim() >= 2 && b.dim() >= 2,
                "matmul: operands must be at least 2-D, got "
                    << shapeToString(a.shape()) << " @ " << shapeToString(b.shape()));
    const int64_t m = a.size(-2);
    const int64_t k = a.size(-1);
    const int64_t k2 = b.size(-2);
    const int64_t n = b.size(-1);
    SLAPO_CHECK(k == k2, "matmul: inner dims mismatch "
                             << shapeToString(a.shape()) << " @ "
                             << shapeToString(b.shape()));

    Shape batch_a(a.shape().begin(), a.shape().end() - 2);
    Shape batch_b(b.shape().begin(), b.shape().end() - 2);
    Shape batch = broadcastShapes(batch_a, batch_b);
    const int64_t n_batch = numelOf(batch);

    Shape out_shape = batch;
    out_shape.push_back(m);
    out_shape.push_back(n);
    // gemmRows writes every C element exactly once: no zero-init needed.
    Tensor out = Tensor::empty(out_shape);

    // Per-batch flat offsets honoring broadcast on batch dims, computed
    // up front so the parallel loop body is pure arithmetic.
    const size_t rank = batch.size();
    auto aligned = [&](const Shape& s) {
        Shape r(rank, 1);
        std::copy(s.begin(), s.end(), r.begin() + (rank - s.size()));
        return r;
    };
    const Shape ba = aligned(batch_a);
    const Shape bb = aligned(batch_b);
    const auto stra = stridesOf(ba);
    const auto strb = stridesOf(bb);
    const auto strc = stridesOf(batch);
    std::vector<int64_t> offs_a(n_batch), offs_b(n_batch);
    for (int64_t bi = 0; bi < n_batch; ++bi) {
        int64_t rem = bi;
        int64_t off_a = 0;
        int64_t off_b = 0;
        for (size_t d = 0; d < rank; ++d) {
            const int64_t idx = rem / strc[d];
            rem %= strc[d];
            if (ba[d] != 1) off_a += idx * stra[d];
            if (bb[d] != 1) off_b += idx * strb[d];
        }
        offs_a[bi] = off_a * m * k;
        offs_b[bi] = off_b * k * n;
    }

    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();

    // Parallelize over batch x row-tiles: every unit owns a disjoint slab
    // of C rows, so the partitioning is race-free and bit-deterministic.
    const auto gemm_rows = kernels::kernels().gemm_rows;
    const int64_t row_tiles = (m + kRowTile - 1) / kRowTile;
    support::parallelFor(0, n_batch * row_tiles, gemmGrain(k, n),
                         [&](int64_t lo, int64_t hi) {
        for (int64_t u = lo; u < hi;) {
            const int64_t bi = u / row_tiles;
            const int64_t t0 = u % row_tiles;
            // Take the longest run of tiles inside this batch entry.
            const int64_t t1 =
                std::min(row_tiles, t0 + (hi - u));
            gemm_rows(pa + offs_a[bi], pb + offs_b[bi], po + bi * m * n,
                      t0 * kRowTile, std::min(m, t1 * kRowTile), k, n,
                      nullptr);
            u += t1 - t0;
        }
    });
    return out;
}

Tensor
transposeLast2(const Tensor& a)
{
    SLAPO_CHECK(a.dim() >= 2, "transposeLast2: needs at least 2-D");
    std::vector<int64_t> perm(a.dim());
    for (int64_t i = 0; i < a.dim(); ++i) perm[i] = i;
    std::swap(perm[a.dim() - 1], perm[a.dim() - 2]);
    return permute(a, perm);
}

Tensor
linear(const Tensor& x, const Tensor& weight, const Tensor& bias)
{
    SLAPO_CHECK(weight.dim() == 2, "linear: weight must be 2-D");
    const int64_t in = weight.size(1);
    const int64_t out_f = weight.size(0);
    SLAPO_CHECK(x.size(-1) == in,
                "linear: input features " << x.size(-1) << " != weight in "
                                          << in);
    const int64_t rows = x.numel() / in;
    Tensor x2 = x.reshape({rows, in});

    // x @ W^T via the shared blocked microkernel: pack W^T once (cost
    // out*in, amortized over all rows), then run the row-parallel GEMM
    // with the bias seeded into the accumulator tile. Accumulation is
    // float with blocked summation — the same convention as matmul, so
    // linear(x, W, b) and add(matmul(x, W^T), b) agree within float
    // rounding (see tests/test_parallel.cc).
    Tensor out = Tensor::empty({rows, out_f});
    alloc::Scratch wt(in * out_f);
    transposePack(weight.data(), wt.data(), out_f, in);
    const float* pb = nullptr;
    if (bias.numel() > 0) {
        SLAPO_CHECK(bias.numel() == out_f, "linear: bias size mismatch");
        pb = bias.data();
    }
    gemmParallel(x2.data(), wt.data(), out.data(), rows, in, out_f, pb);

    Shape out_shape = x.shape();
    out_shape.back() = out_f;
    return out.reshape(out_shape);
}

LinearGrads
linearBackward(const Tensor& grad_out, const Tensor& x, const Tensor& weight,
               bool has_bias)
{
    const int64_t in = weight.size(1);
    const int64_t out_f = weight.size(0);
    const int64_t rows = x.numel() / in;
    Tensor g2 = grad_out.reshape({rows, out_f});
    Tensor x2 = x.reshape({rows, in});
    const float* pg = g2.data();

    LinearGrads grads;
    // grad_x [rows, in] = g [rows, out] @ W [out, in]: W is already in
    // row-major microkernel layout, no packing needed.
    grads.grad_x = Tensor::empty({rows, in});
    gemmParallel(pg, weight.data(), grads.grad_x.data(), rows, out_f, in,
                 nullptr);
    grads.grad_x = grads.grad_x.reshape(x.shape());

    // grad_W [out, in] = g^T [out, rows] @ x [rows, in].
    grads.grad_weight = Tensor::empty({out_f, in});
    alloc::Scratch gt(rows * out_f);
    transposePack(pg, gt.data(), rows, out_f);
    gemmParallel(gt.data(), x2.data(), grads.grad_weight.data(), out_f, rows,
                 in, nullptr);

    if (has_bias) {
        // Column sums of g: chunks own disjoint output columns and walk
        // the rows in fixed order — deterministic at any thread count.
        Tensor gb = Tensor::zeros({out_f});
        float* pbias = gb.data();
        support::parallelFor(0, out_f, 1 << 10, [&](int64_t lo, int64_t hi) {
            for (int64_t r = 0; r < rows; ++r) {
                const float* grow = pg + r * out_f;
                for (int64_t o = lo; o < hi; ++o) {
                    pbias[o] += grow[o];
                }
            }
        });
        grads.grad_bias = gb;
    }
    return grads;
}

namespace {

/**
 * Row softmax core; `po` may alias `pa`: the max pass only reads, the
 * exp pass reads row[i] immediately before writing orow[i], and the
 * scale pass touches only the output — so in-place is bit-identical.
 */
void
softmaxInto(const float* pa, float* po, int64_t rows, int64_t d)
{
    support::parallelFor(0, rows, rowGrain(d), [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
            const float* row = pa + r * d;
            float* orow = po + r * d;
            float max_v = row[0];
            for (int64_t i = 1; i < d; ++i) max_v = std::max(max_v, row[i]);
            double sum = 0.0;
            for (int64_t i = 0; i < d; ++i) {
                orow[i] = std::exp(row[i] - max_v);
                sum += orow[i];
            }
            const float inv = static_cast<float>(1.0 / sum);
            for (int64_t i = 0; i < d; ++i) orow[i] *= inv;
        }
    });
}

} // namespace

Tensor
softmax(const Tensor& a)
{
    const int64_t d = a.size(-1);
    Tensor out = Tensor::empty(a.shape());
    softmaxInto(a.data(), out.data(), a.numel() / d, d);
    return out;
}

void
softmaxInPlace(Tensor& a)
{
    const int64_t d = a.size(-1);
    softmaxInto(a.data(), a.data(), a.numel() / d, d);
}

Tensor
softmaxBackward(const Tensor& grad, const Tensor& y)
{
    const int64_t d = y.size(-1);
    const int64_t rows = y.numel() / d;
    Tensor out = Tensor::empty(y.shape());
    const float* pg = grad.data();
    const float* py = y.data();
    float* po = out.data();
    support::parallelFor(0, rows, rowGrain(d), [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
            const float* gr = pg + r * d;
            const float* yr = py + r * d;
            float* orow = po + r * d;
            double dot = 0.0;
            for (int64_t i = 0; i < d; ++i) dot += gr[i] * yr[i];
            for (int64_t i = 0; i < d; ++i) {
                orow[i] = yr[i] * (gr[i] - static_cast<float>(dot));
            }
        }
    });
    return out;
}

Tensor
layerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta, float eps)
{
    const int64_t d = x.size(-1);
    SLAPO_CHECK(gamma.numel() == d && beta.numel() == d,
                "layerNorm: affine param size mismatch");
    const int64_t rows = x.numel() / d;
    Tensor out = Tensor::empty(x.shape());
    const float* px = x.data();
    const float* pg = gamma.data();
    const float* pb = beta.data();
    float* po = out.data();
    support::parallelFor(0, rows, rowGrain(d), [&](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
            const float* row = px + r * d;
            float* orow = po + r * d;
            double mean = 0.0;
            for (int64_t i = 0; i < d; ++i) mean += row[i];
            mean /= d;
            double var = 0.0;
            for (int64_t i = 0; i < d; ++i) {
                const double c = row[i] - mean;
                var += c * c;
            }
            var /= d;
            const float inv_std =
                static_cast<float>(1.0 / std::sqrt(var + eps));
            for (int64_t i = 0; i < d; ++i) {
                orow[i] =
                    (row[i] - static_cast<float>(mean)) * inv_std * pg[i] +
                    pb[i];
            }
        }
    });
    return out;
}

LayerNormGrads
layerNormBackward(const Tensor& grad_out, const Tensor& x, const Tensor& gamma,
                  float eps)
{
    const int64_t d = x.size(-1);
    const int64_t rows = x.numel() / d;
    LayerNormGrads grads;
    grads.grad_x = Tensor::empty(x.shape()); // every row fully written
    grads.grad_gamma = Tensor::zeros({d});   // accumulated: keep zeros
    grads.grad_beta = Tensor::zeros({d});

    const float* px = x.data();
    const float* pgo = grad_out.data();
    const float* pg = gamma.data();
    float* pdx = grads.grad_x.data();
    float* pdg = grads.grad_gamma.data();
    float* pdb = grads.grad_beta.data();

    // grad_x rows are independent; grad_gamma / grad_beta accumulate
    // across rows, so each chunk sums into a private partial buffer and
    // the partials are folded in fixed chunk order afterwards. Chunk
    // boundaries depend only on (rows, d), keeping the fold — and thus
    // the result — bit-identical at any thread count.
    const int64_t grain = rowGrain(d);
    const int64_t num_chunks = support::chunkCountFor(0, rows, grain);
    std::vector<float> partials(static_cast<size_t>(num_chunks) * 2 * d,
                                0.0f);

    support::parallelFor(0, rows, grain, [&](int64_t lo, int64_t hi) {
        float* part_dg = partials.data() + (lo / grain) * 2 * d;
        float* part_db = part_dg + d;
        for (int64_t r = lo; r < hi; ++r) {
            const float* row = px + r * d;
            const float* go = pgo + r * d;
            float* dx = pdx + r * d;
            double mean = 0.0;
            for (int64_t i = 0; i < d; ++i) mean += row[i];
            mean /= d;
            double var = 0.0;
            for (int64_t i = 0; i < d; ++i) {
                const double c = row[i] - mean;
                var += c * c;
            }
            var /= d;
            const double inv_std = 1.0 / std::sqrt(var + eps);

            double sum_gxhat = 0.0;
            double sum_g = 0.0;
            for (int64_t i = 0; i < d; ++i) {
                const double xhat = (row[i] - mean) * inv_std;
                const double g = go[i] * pg[i];
                sum_gxhat += g * xhat;
                sum_g += g;
                part_dg[i] += static_cast<float>(go[i] * xhat);
                part_db[i] += go[i];
            }
            for (int64_t i = 0; i < d; ++i) {
                const double xhat = (row[i] - mean) * inv_std;
                const double g = go[i] * pg[i];
                dx[i] = static_cast<float>(
                    inv_std * (g - sum_g / d - xhat * sum_gxhat / d));
            }
        }
    });
    for (int64_t c = 0; c < num_chunks; ++c) {
        const float* part_dg = partials.data() + c * 2 * d;
        const float* part_db = part_dg + d;
        for (int64_t i = 0; i < d; ++i) {
            pdg[i] += part_dg[i];
            pdb[i] += part_db[i];
        }
    }
    return grads;
}

Tensor
dropout(const Tensor& a, float p, uint64_t seed)
{
    if (p <= 0.0f) {
        return a.clone();
    }
    SLAPO_CHECK(p < 1.0f, "dropout: p must be in [0, 1), got " << p);
    Tensor out = Tensor::empty(a.shape());
    Rng rng(seed);
    const float inv_keep = 1.0f / (1.0f - p);
    const float* pa = a.data();
    float* po = out.data();
    for (int64_t i = 0; i < a.numel(); ++i) {
        po[i] = rng.uniform() < p ? 0.0f : pa[i] * inv_keep;
    }
    return out;
}

Tensor
dropoutBackward(const Tensor& grad, float p, uint64_t seed)
{
    // The mask is a deterministic function of the seed, so backward simply
    // reapplies the forward transformation to the upstream gradient.
    return dropout(grad, p, seed);
}

Tensor
concat(const std::vector<Tensor>& parts, int64_t axis)
{
    SLAPO_CHECK(!parts.empty(), "concat: no inputs");
    const Tensor& first = parts.front();
    int64_t ax = axis < 0 ? axis + first.dim() : axis;
    SLAPO_CHECK(ax >= 0 && ax < first.dim(), "concat: bad axis " << axis);

    Shape out_shape = first.shape();
    int64_t total = 0;
    for (const Tensor& t : parts) {
        SLAPO_CHECK(t.dim() == first.dim(), "concat: rank mismatch");
        for (int64_t d = 0; d < t.dim(); ++d) {
            if (d != ax) {
                SLAPO_CHECK(t.size(d) == first.size(d),
                            "concat: shape mismatch on axis " << d);
            }
        }
        total += t.size(ax);
    }
    out_shape[ax] = total;
    Tensor out = Tensor::empty(out_shape);

    // outer = product of dims before axis; inner = product after.
    int64_t outer = 1;
    for (int64_t d = 0; d < ax; ++d) outer *= first.size(d);
    int64_t inner = 1;
    for (int64_t d = ax + 1; d < first.dim(); ++d) inner *= first.size(d);

    float* po = out.data();
    int64_t axis_offset = 0;
    for (const Tensor& t : parts) {
        const int64_t a_len = t.size(ax);
        const float* pt = t.data();
        for (int64_t o = 0; o < outer; ++o) {
            std::copy(pt + o * a_len * inner, pt + (o + 1) * a_len * inner,
                      po + (o * total + axis_offset) * inner);
        }
        axis_offset += a_len;
    }
    return out;
}

std::vector<Tensor>
chunk(const Tensor& a, int64_t n, int64_t axis)
{
    int64_t ax = axis < 0 ? axis + a.dim() : axis;
    SLAPO_CHECK(ax >= 0 && ax < a.dim(), "chunk: bad axis " << axis);
    SLAPO_CHECK(a.size(ax) % n == 0,
                "chunk: axis extent " << a.size(ax) << " not divisible by " << n);
    const int64_t step = a.size(ax) / n;
    std::vector<Tensor> out;
    out.reserve(n);
    for (int64_t i = 0; i < n; ++i) {
        out.push_back(narrow(a, ax, i * step, step));
    }
    return out;
}

Tensor
narrow(const Tensor& a, int64_t axis, int64_t start, int64_t length)
{
    int64_t ax = axis < 0 ? axis + a.dim() : axis;
    SLAPO_CHECK(ax >= 0 && ax < a.dim(), "narrow: bad axis " << axis);
    SLAPO_CHECK(start >= 0 && start + length <= a.size(ax),
                "narrow: slice [" << start << ", " << start + length
                                  << ") out of range for axis extent "
                                  << a.size(ax));
    Shape out_shape = a.shape();
    out_shape[ax] = length;
    Tensor out = Tensor::empty(out_shape);

    int64_t outer = 1;
    for (int64_t d = 0; d < ax; ++d) outer *= a.size(d);
    int64_t inner = 1;
    for (int64_t d = ax + 1; d < a.dim(); ++d) inner *= a.size(d);

    const float* pa = a.data();
    float* po = out.data();
    const int64_t full = a.size(ax);
    for (int64_t o = 0; o < outer; ++o) {
        std::copy(pa + (o * full + start) * inner,
                  pa + (o * full + start + length) * inner,
                  po + o * length * inner);
    }
    return out;
}

Tensor
narrowBackward(const Tensor& grad, const Shape& in_shape, int64_t axis,
               int64_t start)
{
    int64_t ax = axis < 0 ? axis + static_cast<int64_t>(in_shape.size()) : axis;
    Tensor out = Tensor::zeros(in_shape);
    const int64_t length = grad.size(ax);

    int64_t outer = 1;
    for (int64_t d = 0; d < ax; ++d) outer *= in_shape[d];
    int64_t inner = 1;
    for (size_t d = ax + 1; d < in_shape.size(); ++d) inner *= in_shape[d];

    const float* pg = grad.data();
    float* po = out.data();
    const int64_t full = in_shape[ax];
    for (int64_t o = 0; o < outer; ++o) {
        std::copy(pg + o * length * inner, pg + (o + 1) * length * inner,
                  po + (o * full + start) * inner);
    }
    return out;
}

Tensor
permute(const Tensor& a, const std::vector<int64_t>& perm)
{
    SLAPO_CHECK(static_cast<int64_t>(perm.size()) == a.dim(),
                "permute: perm rank mismatch");
    const int64_t rank = a.dim();
    Shape out_shape(rank);
    for (int64_t d = 0; d < rank; ++d) {
        out_shape[d] = a.size(perm[d]);
    }
    Tensor out = Tensor::empty(out_shape);
    const auto in_strides = stridesOf(a.shape());
    std::vector<int64_t> src_strides(rank); // input stride of output dim d
    for (int64_t d = 0; d < rank; ++d) {
        src_strides[d] = in_strides[perm[d]];
    }
    const float* pa = a.data();
    float* po = out.data();

    // Walk the output one innermost row at a time, advancing the source
    // offset with the same incremental odometer as broadcastBinary, and
    // copy each row in one strided loop.
    const int64_t inner = rank > 0 ? out_shape[rank - 1] : 1;
    const int64_t inner_stride = rank > 0 ? src_strides[rank - 1] : 0;
    const int64_t rows = inner > 0 ? out.numel() / inner : 0;
    std::vector<int64_t> idx(std::max<int64_t>(rank - 1, 0), 0);
    int64_t src = 0;
    for (int64_t row = 0; row < rows; ++row) {
        const float* s = pa + src;
        float* dst = po + row * inner;
        for (int64_t i = 0; i < inner; ++i) dst[i] = s[i * inner_stride];
        for (int64_t d = rank - 2; d >= 0; --d) {
            if (++idx[d] < out_shape[d]) {
                src += src_strides[d];
                break;
            }
            idx[d] = 0;
            src -= (out_shape[d] - 1) * src_strides[d];
        }
    }
    return out;
}

Tensor
embedding(const Tensor& ids, const Tensor& table)
{
    SLAPO_CHECK(table.dim() == 2, "embedding: table must be 2-D");
    const int64_t vocab = table.size(0);
    const int64_t dim = table.size(1);
    Shape out_shape = ids.shape();
    out_shape.push_back(dim);
    Tensor out = Tensor::empty(out_shape);
    const float* pi = ids.data();
    const float* pt = table.data();
    float* po = out.data();
    for (int64_t i = 0; i < ids.numel(); ++i) {
        const int64_t id = static_cast<int64_t>(pi[i]);
        SLAPO_CHECK(id >= 0 && id < vocab,
                    "embedding: id " << id << " out of vocab " << vocab);
        std::copy(pt + id * dim, pt + (id + 1) * dim, po + i * dim);
    }
    return out;
}

Tensor
embeddingBackward(const Tensor& grad_out, const Tensor& ids, int64_t vocab)
{
    const int64_t dim = grad_out.size(-1);
    Tensor grad_table = Tensor::zeros({vocab, dim});
    const float* pg = grad_out.data();
    const float* pi = ids.data();
    float* pt = grad_table.data();
    for (int64_t i = 0; i < ids.numel(); ++i) {
        const int64_t id = static_cast<int64_t>(pi[i]);
        for (int64_t d = 0; d < dim; ++d) {
            pt[id * dim + d] += pg[i * dim + d];
        }
    }
    return grad_table;
}

Tensor
mseLoss(const Tensor& pred, const Tensor& target)
{
    SLAPO_CHECK(pred.shape() == target.shape(), "mseLoss: shape mismatch");
    double acc = 0.0;
    const float* pp = pred.data();
    const float* pt = target.data();
    for (int64_t i = 0; i < pred.numel(); ++i) {
        const double d = pp[i] - pt[i];
        acc += d * d;
    }
    return Tensor::fromValues({1}, {static_cast<float>(acc / pred.numel())});
}

Tensor
mseLossBackward(const Tensor& pred, const Tensor& target)
{
    Tensor out = Tensor::empty(pred.shape());
    const float* pp = pred.data();
    const float* pt = target.data();
    float* po = out.data();
    const float s = 2.0f / static_cast<float>(pred.numel());
    for (int64_t i = 0; i < pred.numel(); ++i) {
        po[i] = s * (pp[i] - pt[i]);
    }
    return out;
}

Tensor
crossEntropy(const Tensor& logits, const Tensor& targets)
{
    const int64_t vocab = logits.size(-1);
    const int64_t rows = logits.numel() / vocab;
    SLAPO_CHECK(targets.numel() == rows, "crossEntropy: target count mismatch");
    Tensor probs = softmax(logits);
    const float* pp = probs.data();
    const float* pt = targets.data();
    double acc = 0.0;
    for (int64_t r = 0; r < rows; ++r) {
        const int64_t t = static_cast<int64_t>(pt[r]);
        SLAPO_CHECK(t >= 0 && t < vocab, "crossEntropy: bad target " << t);
        acc -= std::log(std::max(pp[r * vocab + t], 1e-12f));
    }
    return Tensor::fromValues({1}, {static_cast<float>(acc / rows)});
}

Tensor
crossEntropyBackward(const Tensor& logits, const Tensor& targets)
{
    const int64_t vocab = logits.size(-1);
    const int64_t rows = logits.numel() / vocab;
    Tensor grad = softmax(logits);
    float* pg = grad.data();
    const float* pt = targets.data();
    const float inv = 1.0f / static_cast<float>(rows);
    for (int64_t r = 0; r < rows; ++r) {
        const int64_t t = static_cast<int64_t>(pt[r]);
        pg[r * vocab + t] -= 1.0f;
    }
    for (int64_t i = 0; i < grad.numel(); ++i) {
        pg[i] *= inv;
    }
    return grad;
}

Tensor
conv2d(const Tensor& x, const Tensor& w, int64_t stride, int64_t pad)
{
    SLAPO_CHECK(x.dim() == 4 && w.dim() == 4, "conv2d: expects NCHW x and OIHW w");
    const int64_t B = x.size(0), Cin = x.size(1), H = x.size(2), W = x.size(3);
    const int64_t Cout = w.size(0), kh = w.size(2), kw = w.size(3);
    SLAPO_CHECK(w.size(1) == Cin, "conv2d: channel mismatch");
    const int64_t Ho = (H + 2 * pad - kh) / stride + 1;
    const int64_t Wo = (W + 2 * pad - kw) / stride + 1;
    Tensor out = Tensor::empty({B, Cout, Ho, Wo});
    const float* px = x.data();
    const float* pw = w.data();
    float* po = out.data();
    // One unit = one (batch, out-channel) output plane: units write
    // disjoint planes and each output pixel keeps its fixed
    // ci -> kh -> kw accumulation order, so any partitioning is
    // bit-deterministic.
    support::parallelFor(0, B * Cout, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t u = lo; u < hi; ++u) {
        const int64_t b = u / Cout;
        const int64_t co = u % Cout;
        {
            for (int64_t ho = 0; ho < Ho; ++ho) {
                for (int64_t wo = 0; wo < Wo; ++wo) {
                    double acc = 0.0;
                    for (int64_t ci = 0; ci < Cin; ++ci) {
                        for (int64_t i = 0; i < kh; ++i) {
                            const int64_t hi = ho * stride + i - pad;
                            if (hi < 0 || hi >= H) continue;
                            for (int64_t j = 0; j < kw; ++j) {
                                const int64_t wi = wo * stride + j - pad;
                                if (wi < 0 || wi >= W) continue;
                                acc += px[((b * Cin + ci) * H + hi) * W + wi] *
                                       pw[((co * Cin + ci) * kh + i) * kw + j];
                            }
                        }
                    }
                    po[((b * Cout + co) * Ho + ho) * Wo + wo] =
                        static_cast<float>(acc);
                }
            }
        }
      }
    });
    return out;
}

Tensor
batchNorm2d(const Tensor& x, const Tensor& gamma, const Tensor& beta, float eps)
{
    SLAPO_CHECK(x.dim() == 4, "batchNorm2d: expects NCHW");
    const int64_t B = x.size(0), C = x.size(1), H = x.size(2), W = x.size(3);
    SLAPO_CHECK(gamma.numel() == C && beta.numel() == C,
                "batchNorm2d: affine size mismatch");
    Tensor out = Tensor::empty(x.shape());
    const float* px = x.data();
    const float* pg = gamma.data();
    const float* pb = beta.data();
    float* po = out.data();
    const int64_t per_c = B * H * W;
    // Channels are fully independent (each owns its statistics and its
    // strided output slice), so the channel loop parallelizes directly.
    support::parallelFor(0, C, 1, [&](int64_t c_lo, int64_t c_hi) {
      for (int64_t c = c_lo; c < c_hi; ++c) {
        double mean = 0.0;
        for (int64_t b = 0; b < B; ++b) {
            for (int64_t i = 0; i < H * W; ++i) {
                mean += px[(b * C + c) * H * W + i];
            }
        }
        mean /= per_c;
        double var = 0.0;
        for (int64_t b = 0; b < B; ++b) {
            for (int64_t i = 0; i < H * W; ++i) {
                const double d = px[(b * C + c) * H * W + i] - mean;
                var += d * d;
            }
        }
        var /= per_c;
        const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps));
        for (int64_t b = 0; b < B; ++b) {
            for (int64_t i = 0; i < H * W; ++i) {
                const int64_t idx = (b * C + c) * H * W + i;
                po[idx] = (px[idx] - static_cast<float>(mean)) * inv_std * pg[c] +
                          pb[c];
            }
        }
      }
    });
    return out;
}

Tensor
globalAvgPool(const Tensor& x)
{
    SLAPO_CHECK(x.dim() == 4, "globalAvgPool: expects NCHW");
    const int64_t B = x.size(0), C = x.size(1), HW = x.size(2) * x.size(3);
    Tensor out = Tensor::empty({B, C});
    const float* px = x.data();
    float* po = out.data();
    for (int64_t b = 0; b < B; ++b) {
        for (int64_t c = 0; c < C; ++c) {
            double acc = 0.0;
            for (int64_t i = 0; i < HW; ++i) {
                acc += px[(b * C + c) * HW + i];
            }
            po[b * C + c] = static_cast<float>(acc / HW);
        }
    }
    return out;
}

} // namespace ops
} // namespace slapo
