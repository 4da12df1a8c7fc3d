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
 *    -ffp-contract=off, so the compiler never fuses a multiply-add, and
 *    without -ffast-math it may vectorize across independent elements but
 *    never reassociate a sum. The one fused multiply-add is the GEMM's,
 *    written out: the vfmadd instruction on the AVX paths, an exact
 *    emulation on SSE2 (fusedMultiplyAdd).
 *  - No libm: every IEEE basic operation rounds the same in every ISA,
 *    but libm's functions are glibc's own and scalar. tanh, exp and log
 *    are written out below instead. The isa_symbols test fails on any
 *    undefined symbol in the objects, which catches a std::tanh here.
 *    The objects are built with -fno-trapping-math, so GCC may evaluate
 *    both sides of a float select and vectorize the loop; that changes
 *    no result. They are also built with -fno-tree-loop-distribute-patterns,
 *    which keeps GCC from turning the pack's copy and zero loops into
 *    memcpy and memset calls.
 *  - Internal linkage only: everything here lives in an anonymous
 *    namespace and calls no inline or template function from another
 *    header (no std::min, no std::sqrt). An out-of-line copy of a shared
 *    inline function in an AVX-512 object could otherwise be the one the
 *    linker keeps, and an AVX2-only CPU would die on it with SIGILL. The
 *    isa_symbols test checks the objects for such weak symbols. The
 *    <immintrin.h> intrinsics are the exception: they are declared
 *    gnu_inline and always_inline, so no object ever holds a copy.
 */
#pragma once

#include <immintrin.h>

#include <cstdint>

#include "tensor/kernels.h"

namespace slapo {
namespace kernels {
namespace {

// --- packed-panel GEMM ---------------------------------------------------
//
// The one GEMM behind matmul, linear forward, and both linear backward
// GEMMs (`gemm` in ops.cc splits the work and packs per chunk).
// `packPanel` copies kPanelCols columns of B, all k rows, into one
// contiguous panel whose rows are padded with zeros to whole vectors.
// `gemmPanel` streams a panel once per kTileRows rows of A while a
// kTileRows x kPanelCols accumulator tile stays in vector registers. Every
// k step is one correctly rounded fused multiply-add, c = fmaf(a, b, c),
// k ascending from the bias-or-+0 seed, and each C element is written
// once. The tile is per path, chosen by measurement (docs/PERFORMANCE.md,
// "Blocked kernels").

#if defined(__AVX512F__)
constexpr int64_t kVecFloats = 16; // 32 zmm registers
constexpr int64_t kTileRows = 8;
constexpr int64_t kTileVecs = 2;
#elif defined(__AVX2__)
constexpr int64_t kVecFloats = 8; // 16 ymm registers
constexpr int64_t kTileRows = 4;
constexpr int64_t kTileVecs = 3;
#else
// 16 xmm registers; every fused multiply-add is emulated in double
// (fusedMultiplyAdd), which costs far more than the loads the tile saves.
constexpr int64_t kVecFloats = 4;
constexpr int64_t kTileRows = 4;
constexpr int64_t kTileVecs = 4;
#endif
constexpr int64_t kPanelCols = kVecFloats * kTileVecs;
static_assert(kPanelCols % kTileRows == 0,
              "a transposed A is packed in panels of whole row tiles");

/** One vector register of floats, loaded and stored at any float
 * alignment; may_alias, since it reads and writes float buffers. */
typedef float Vec
    __attribute__((vector_size(kVecFloats * sizeof(float)), aligned(4),
                   may_alias));

#if !defined(__AVX2__)
/**
 * fmaf(a, b, c) from SSE2 arithmetic. The product of two floats is exact
 * in double, so only the double sum s = a * b + c rounds before the final
 * rounding to float. Rounding s to odd instead (when the sum is inexact,
 * step to the neighbour with an odd last bit on the exact sum's side; the
 * TwoSum error e gives the side) keeps the two roundings equal to one:
 * double has 29 bits more than float (Boldo and Melquiond, "Emulation of
 * FMA and correctly rounded sums", 2008).
 */
float
fmaEmulated(float a, float b, float c)
{
    const double p = static_cast<double>(a) * static_cast<double>(b);
    const double cd = c;
    const double s = p + cd;
    // TwoSum: s + e == p + cd exactly; e is NaN when s is not finite.
    const double cv = s - p;
    const double pv = s - cv;
    const double e = (p - pv) + (cd - cv);
    uint64_t bits = __builtin_bit_cast(uint64_t, s);
    if ((e < 0.0 || e > 0.0) && (bits & 1) == 0) {
        bits = (e > 0.0) == (s > 0.0) ? bits + 1 : bits - 1;
    }
    return static_cast<float>(__builtin_bit_cast(double, bits));
}
#endif

/** A vector with x in every lane. */
__attribute__((always_inline)) inline Vec
broadcast(float x)
{
#if defined(__AVX512F__)
    return _mm512_set1_ps(x);
#elif defined(__AVX2__)
    return _mm256_set1_ps(x);
#else
    return _mm_set1_ps(x);
#endif
}

/** Per lane, c + a * b rounded once: fmaf. */
__attribute__((always_inline)) inline Vec
fusedMultiplyAdd(Vec a, Vec b, Vec c)
{
#if defined(__AVX512F__)
    return _mm512_fmadd_ps(a, b, c);
#elif defined(__AVX2__)
    return _mm256_fmadd_ps(a, b, c);
#else
    const __m128d a_lo = _mm_cvtps_pd(a);
    const __m128d a_hi = _mm_cvtps_pd(_mm_movehl_ps(a, a));
    const __m128d b_lo = _mm_cvtps_pd(b);
    const __m128d b_hi = _mm_cvtps_pd(_mm_movehl_ps(b, b));
    const __m128d s_lo =
        _mm_add_pd(_mm_mul_pd(a_lo, b_lo), _mm_cvtps_pd(c));
    const __m128d s_hi = _mm_add_pd(_mm_mul_pd(a_hi, b_hi),
                                    _mm_cvtps_pd(_mm_movehl_ps(c, c)));
    // Rounding s to float can only go wrong when s sits on a float
    // midpoint, whose low 29 bits are 1 then 28 zeros (more zeros in the
    // float subnormal range). Vectors where no lane's sum has its low 28
    // bits zero skip the correction; the rest run fmaEmulated per lane.
    const __m128 low_words = _mm_shuffle_ps(
        _mm_castpd_ps(s_lo), _mm_castpd_ps(s_hi), _MM_SHUFFLE(2, 0, 2, 0));
    const __m128i low_bits = _mm_and_si128(_mm_castps_si128(low_words),
                                           _mm_set1_epi32(0x0fffffff));
    if (__builtin_expect(
            _mm_movemask_epi8(_mm_cmpeq_epi32(low_bits,
                                              _mm_setzero_si128())) != 0,
            0)) {
        Vec out;
        for (int i = 0; i < kVecFloats; ++i) {
            out[i] = fmaEmulated(a[i], b[i], c[i]);
        }
        return out;
    }
    return _mm_movelh_ps(_mm_cvtpd_ps(s_lo), _mm_cvtpd_ps(s_hi));
#endif
}

/**
 * Keep `v` in a register up to this point. Without it GCC writes the last
 * fused multiply-add of a full tile's k step into the register of the B
 * vector or broadcast A value that dies there, and then copies the
 * accumulators it displaced once per k step. (Tail tiles fold their few B
 * loads into the multiply-adds instead and keep about one register copy
 * per accumulator.)
 */
__attribute__((always_inline)) inline void
keepInRegister(Vec v)
{
    __asm__("" : : "v"(v));
}

/**
 * One RT x NV-vector tile of C at `c`: seed, then for each k step one
 * panel row of NV vectors times RT broadcast A values, one fused
 * multiply-add per accumulator. The RT * NV accumulators are locals the
 * compiler keeps in registers across the k loop. The full-width and the
 * ragged store are separate instantiations: with both after one loop, GCC
 * copies accumulators on every k step.
 */
template <int RT, int NV, bool FullWidth>
__attribute__((always_inline)) inline void
panelTile(const float* a, int64_t a_rs, int64_t a_cs, const float* panel,
          int64_t k, const Vec* seed, float* c, int64_t ldc, int64_t cols)
{
    Vec acc[RT][NV];
#pragma GCC unroll 16
    for (int r = 0; r < RT; ++r) {
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v) acc[r][v] = seed[v];
    }
    for (int64_t kk = 0; kk < k; ++kk) {
        const float* prow = panel + kk * NV * kVecFloats;
        const float* acol = a + kk * a_cs;
        Vec b[NV];
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v) {
            b[v] = *reinterpret_cast<const Vec*>(prow + v * kVecFloats);
        }
#pragma GCC unroll 16
        for (int r = 0; r < RT; ++r) {
            const Vec ar = broadcast(acol[r * a_rs]);
#pragma GCC unroll 8
            for (int v = 0; v < NV; ++v) {
                acc[r][v] = fusedMultiplyAdd(ar, b[v], acc[r][v]);
            }
            if constexpr (RT == kTileRows) keepInRegister(ar);
        }
        if constexpr (RT == kTileRows) {
#pragma GCC unroll 8
            for (int v = 0; v < NV; ++v) keepInRegister(b[v]);
        }
    }
    if constexpr (FullWidth) {
#pragma GCC unroll 16
        for (int r = 0; r < RT; ++r) {
#pragma GCC unroll 8
            for (int v = 0; v < NV; ++v) {
                *reinterpret_cast<Vec*>(c + r * ldc + v * kVecFloats) =
                    acc[r][v];
            }
        }
    } else {
        // Last panel of a ragged n: store only the real columns.
        for (int r = 0; r < RT; ++r) {
            float lanes[NV * kVecFloats];
#pragma GCC unroll 8
            for (int v = 0; v < NV; ++v) {
                *reinterpret_cast<Vec*>(lanes + v * kVecFloats) = acc[r][v];
            }
            for (int64_t j = 0; j < cols; ++j) c[r * ldc + j] = lanes[j];
        }
    }
}

/** The rows left after the full tiles: one tile of exactly `rt` rows. */
template <int RT, int NV, bool FullWidth>
void
tailTile(int64_t rt, const float* a, int64_t a_rs, int64_t a_cs,
         const float* panel, int64_t k, const Vec* seed, float* c,
         int64_t ldc, int64_t cols)
{
    if constexpr (RT > 0) {
        if (rt == RT) {
            panelTile<RT, NV, FullWidth>(a, a_rs, a_cs, panel, k, seed, c,
                                         ldc, cols);
        } else {
            tailTile<RT - 1, NV, FullWidth>(rt, a, a_rs, a_cs, panel, k, seed,
                                            c, ldc, cols);
        }
    }
}

/** All rows of `g` against a panel NV vectors wide; FullWidth when the
 * panel has no padding columns. */
template <int NV, bool FullWidth>
void
panelRows(const PanelGemm& g)
{
    const float* a = g.a;
    const int64_t a_rs = g.a_row_stride;
    const int64_t a_cs = g.a_col_stride;
    const float* panel = g.panel;
    float* c = g.c;
    const int64_t ldc = g.c_row_stride;
    const int64_t rows = g.rows;
    const int64_t k = g.k;
    const int64_t cols = g.cols;
    float seed_lanes[NV * kVecFloats];
    for (int64_t j = 0; j < NV * kVecFloats; ++j) {
        seed_lanes[j] = g.bias != nullptr && j < cols ? g.bias[j] : 0.0f;
    }
    Vec seed[NV];
    for (int v = 0; v < NV; ++v) {
        seed[v] = *reinterpret_cast<const Vec*>(seed_lanes + v * kVecFloats);
    }
    int64_t i = 0;
    for (; i + kTileRows <= rows; i += kTileRows) {
        panelTile<kTileRows, NV, FullWidth>(a + i * a_rs, a_rs, a_cs, panel, k,
                                            seed, c + i * ldc, ldc, cols);
    }
    tailTile<kTileRows - 1, NV, FullWidth>(rows - i, a + i * a_rs, a_rs, a_cs,
                                           panel, k, seed, c + i * ldc, ldc,
                                           cols);
}

/** panelRows for the panel's width in vectors (the last panel of a
 * ragged n may be narrower than kTileVecs). */
template <int NV>
void
panelRowsOfWidth(int64_t nv, const PanelGemm& g)
{
    if constexpr (NV > 0) {
        if (nv != NV) {
            panelRowsOfWidth<NV - 1>(nv, g);
        } else if (g.cols == NV * kVecFloats) {
            panelRows<NV, true>(g);
        } else {
            panelRows<NV, false>(g);
        }
    }
}

void
gemmPanel(const PanelGemm& g)
{
    panelRowsOfWidth<kTileVecs>((g.cols + kVecFloats - 1) / kVecFloats, g);
}

// Transposing pack: a kVecFloats-square block is loaded as rows, then
// log2(kVecFloats) rounds each interleave row i with row i + V/2, which
// leaves the transpose in registers (one two-source shuffle per row and
// round).
typedef int32_t ShuffleMask
    __attribute__((vector_size(kVecFloats * sizeof(int32_t))));
#if defined(__AVX512F__)
constexpr ShuffleMask kInterleaveLo = {0, 16, 1, 17, 2, 18, 3, 19,
                                       4, 20, 5, 21, 6, 22, 7, 23};
constexpr ShuffleMask kInterleaveHi = {8,  24, 9,  25, 10, 26, 11, 27,
                                       12, 28, 13, 29, 14, 30, 15, 31};
constexpr int kInterleaveRounds = 4;
#elif defined(__AVX2__)
constexpr ShuffleMask kInterleaveLo = {0, 8, 1, 9, 2, 10, 3, 11};
constexpr ShuffleMask kInterleaveHi = {4, 12, 5, 13, 6, 14, 7, 15};
constexpr int kInterleaveRounds = 3;
#else
constexpr ShuffleMask kInterleaveLo = {0, 4, 1, 5};
constexpr ShuffleMask kInterleaveHi = {2, 6, 3, 7};
constexpr int kInterleaveRounds = 2;
#endif

/** dst[j * ldd + i] = src[i * lds + j] for i, j < kVecFloats. */
__attribute__((always_inline)) inline void
transposeBlock(const float* src, int64_t lds, float* dst, int64_t ldd)
{
    Vec r[kVecFloats];
#pragma GCC unroll 16
    for (int i = 0; i < kVecFloats; ++i) {
        r[i] = *reinterpret_cast<const Vec*>(src + i * lds);
    }
#pragma GCC unroll 4
    for (int round = 0; round < kInterleaveRounds; ++round) {
        Vec t[kVecFloats];
#pragma GCC unroll 16
        for (int i = 0; i < kVecFloats / 2; ++i) {
            t[2 * i] = __builtin_shuffle(r[i], r[i + kVecFloats / 2],
                                         kInterleaveLo);
            t[2 * i + 1] = __builtin_shuffle(r[i], r[i + kVecFloats / 2],
                                             kInterleaveHi);
        }
#pragma GCC unroll 16
        for (int i = 0; i < kVecFloats; ++i) r[i] = t[i];
    }
#pragma GCC unroll 16
    for (int j = 0; j < kVecFloats; ++j) {
        *reinterpret_cast<Vec*>(dst + j * ldd) = r[j];
    }
}

/** One panel row's columns [cols, width) are zero padding. */
void
zeroPad(float* row, int64_t cols, int64_t width)
{
    for (int64_t j = cols; j < width; ++j) row[j] = 0.0f;
}

void
packPanel(const float* src, int64_t ld, bool transposed, int64_t k,
          int64_t cols, float* panel)
{
    const int64_t width = (cols + kVecFloats - 1) / kVecFloats * kVecFloats;
    if (!transposed) {
        for (int64_t kk = 0; kk < k; ++kk) {
            const float* s = src + kk * ld;
            float* d = panel + kk * width;
            for (int64_t j = 0; j < cols; ++j) d[j] = s[j];
            zeroPad(d, cols, width);
        }
        return;
    }
    // B = W^T (linear): whole blocks through registers, so each source
    // line is read once; the ragged edges element by element.
    const int64_t k_blocks = k - k % kVecFloats;
    const int64_t col_blocks = cols - cols % kVecFloats;
    for (int64_t k0 = 0; k0 < k_blocks; k0 += kVecFloats) {
        for (int64_t j0 = 0; j0 < col_blocks; j0 += kVecFloats) {
            transposeBlock(src + j0 * ld + k0, ld, panel + k0 * width + j0,
                           width);
        }
        for (int64_t kk = k0; kk < k0 + kVecFloats; ++kk) {
            float* d = panel + kk * width;
            for (int64_t j = col_blocks; j < cols; ++j) d[j] = src[j * ld + kk];
            zeroPad(d, cols, width);
        }
    }
    for (int64_t kk = k_blocks; kk < k; ++kk) {
        float* d = panel + kk * width;
        for (int64_t j = 0; j < cols; ++j) d[j] = src[j * ld + kk];
        zeroPad(d, cols, width);
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

// e^z = 2^n e^r with z = n ln2 + r. ln2 = kLn2Hi + kLn2Lo (Cody-Waite):
// kLn2Hi has 9 significant bits, so n * kLn2Hi is exact for |n| < 2^15
// and r is nearly exact.
constexpr float kLog2e = 1.44269504f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;

/** e^r for |r| <= ln2/2, a degree-7 polynomial 1 + r + r^2 Q(r); T is
 * float or a vector of floats, with the same operations per element. */
template <typename T>
__attribute__((always_inline)) inline T
expOfReduced(T r)
{
    T q = T{} + 1.98909808698e-4f;
    q = q * r + 1.3933641032e-3f;
    q = q * r + 8.33331093445e-3f;
    q = q * r + 4.1666465006e-2f;
    q = q * r + 1.66666666816e-1f;
    q = q * r + 5.00000001346e-1f;
    return r * r * q + r + 1.0f;
}

/** e^z for z in [0, 20], 2^n built from exponent bits. */
float
expNonNegative(float z)
{
    const int32_t n = static_cast<int32_t>(z * kLog2e + 0.5f);
    const float nf = static_cast<float>(n);
    const float r = (z - nf * kLn2Hi) - nf * kLn2Lo;
    return expOfReduced(r) *
           floatFromBits(static_cast<uint32_t>(n + 127) << 23);
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

// --- row kernels: softmax, cross-entropy, layer norm ------------------------
//
// A row is read in blocks of 16 lanes: element i feeds lane i mod 16. Row
// sums are kept per lane in double and folded in one fixed pairwise order
// at the end of the row. The lane count is not the path's vector width:
// GCC lowers a 16-lane vector to 4 xmm, 2 ymm or 1 zmm registers, so each
// lane sees the same additions in the same order on every path. A partial
// last block is either padded with a value that adds nothing (softmax,
// cross-entropy) or finished lane by lane with the same scalar operations
// (layer norm). Rows never span two calls, so the thread count never
// changes the bits either.

constexpr int kLanes = 16;
typedef float FloatLanes
    __attribute__((vector_size(kLanes * sizeof(float)), aligned(4),
                   may_alias));
typedef double DoubleLanes
    __attribute__((vector_size(kLanes * sizeof(double)), aligned(8),
                   may_alias));
typedef int32_t IntLanes __attribute__((vector_size(kLanes * sizeof(int32_t))));

constexpr float kNegInf = -__builtin_inff();

__attribute__((always_inline)) inline FloatLanes
loadLanes(const float* p)
{
    return *reinterpret_cast<const FloatLanes*>(p);
}

__attribute__((always_inline)) inline void
storeLanes(float* p, FloatLanes v)
{
    *reinterpret_cast<FloatLanes*>(p) = v;
}

/** p[0, n) in the first n lanes, `pad` in the rest (n < kLanes). */
__attribute__((always_inline)) inline FloatLanes
loadPartial(const float* p, int64_t n, float pad)
{
    float lanes[kLanes];
    for (int j = 0; j < kLanes; ++j) lanes[j] = j < n ? p[j] : pad;
    return loadLanes(lanes);
}

/** The first n lanes of v to p[0, n). */
__attribute__((always_inline)) inline void
storePartial(float* p, int64_t n, FloatLanes v)
{
    float lanes[kLanes];
    storeLanes(lanes, v);
    for (int64_t j = 0; j < n; ++j) p[j] = lanes[j];
}

__attribute__((always_inline)) inline DoubleLanes
widen(FloatLanes v)
{
    return __builtin_convertvector(v, DoubleLanes);
}

/** The lanes' sum: lane j plus lane j + w for w = 8, 4, 2, 1. */
__attribute__((always_inline)) inline double
foldLanes(DoubleLanes a)
{
    for (int w = kLanes / 2; w >= 1; w /= 2) {
        for (int j = 0; j < w; ++j) a[j] += a[j + w];
    }
    return a[0];
}

/**
 * e^z per lane for z <= 0 (softmax's x - max). Below -87, where e^z nears
 * the smallest normal float, the result is +0, so a score masked with
 * -1e9 gives exactly 0 and no lane ever computes a subnormal; -inf gives
 * 0 and NaN stays NaN. Above -87, 2^n is built from exponent bits
 * (n >= -126) as in expNonNegative.
 */
__attribute__((always_inline)) inline FloatLanes
expNonPositive(FloatLanes z)
{
    const FloatLanes floor = FloatLanes{} + -87.0f;
    const FloatLanes zc = z > floor ? z : floor; // -inf and NaN too
    // Round to nearest: z * log2(e) <= 0, truncated after subtracting 1/2.
    const IntLanes n = __builtin_convertvector(zc * kLog2e - 0.5f, IntLanes);
    const FloatLanes nf = __builtin_convertvector(n, FloatLanes);
    const FloatLanes r = (zc - nf * kLn2Hi) - nf * kLn2Lo;
    const FloatLanes e = expOfReduced(r) * (FloatLanes)((n + 127) << 23);
    return (FloatLanes)(((IntLanes)e & (z >= floor)) |
                        ((IntLanes)z & (z != z)));
}

/** The row's largest element. NaN elements are passed over here; the
 * exp pass turns their row into NaN. */
float
rowMax(const float* x, int64_t d)
{
    FloatLanes m = FloatLanes{} + kNegInf;
    int64_t i = 0;
    for (; i + kLanes <= d; i += kLanes) {
        const FloatLanes v = loadLanes(x + i);
        m = v > m ? v : m;
    }
    if (i < d) {
        const FloatLanes v = loadPartial(x + i, d - i, kNegInf);
        m = v > m ? v : m;
    }
    float out = m[0];
    for (int j = 1; j < kLanes; ++j) out = m[j] > out ? m[j] : out;
    return out;
}

/** sum_i e^(x_i - m) in double, e^(x_i - m) also stored to y[i] when
 * Store (y may equal x: each block is read before it is written). */
template <bool Store>
double
rowExpSum(const float* x, float m, float* y, int64_t d)
{
    DoubleLanes acc = {};
    int64_t i = 0;
    for (; i + kLanes <= d; i += kLanes) {
        const FloatLanes e = expNonPositive(loadLanes(x + i) - m);
        if constexpr (Store) storeLanes(y + i, e);
        acc += widen(e);
    }
    if (i < d) {
        // Padding with -inf adds e^-inf = +0 to the idle lanes (a row
        // whose max is -inf is NaN whatever they add).
        const FloatLanes e =
            expNonPositive(loadPartial(x + i, d - i, kNegInf) - m);
        if constexpr (Store) storePartial(y + i, d - i, e);
        acc += widen(e);
    }
    return foldLanes(acc);
}

constexpr int kLogTerms = 24;

/** 1/n for n in [1, kLogTerms], computed at compile time. */
struct Reciprocals
{
    double of[kLogTerms + 1] = {};
    constexpr Reciprocals()
    {
        for (int n = 1; n <= kLogTerms; ++n) of[n] = 1.0 / n;
    }
};
constexpr Reciprocals kReciprocals;

/**
 * log(s) for a positive normal s from multiplies and adds: s = 2^k m with
 * m in [1, 2), m scaled by 2^(+-1/2) and 2^(+-1/4) into [2^-1/4, 2^1/4],
 * then the log(1 + f) series, |f| < 0.19, to 24 terms (truncation below
 * 1e-19). NaN stays NaN. Called once per row.
 */
double
logPositive(double s)
{
    if (s != s) {
        return s;
    }
    constexpr double kSqrt2 = 1.4142135623730951;
    constexpr double kRoot4Of2 = 1.189207115002721;    // 2^(1/4)
    constexpr double kInvRoot4Of2 = 0.8408964152537145; // 2^(-1/4)
    constexpr double kQuarterLn2 = 0.17328679513998632;
    const uint64_t bits = __builtin_bit_cast(uint64_t, s);
    int64_t quarters = 4 * (static_cast<int64_t>(bits >> 52) - 1023);
    double m = __builtin_bit_cast(
        double, (bits & 0x000fffffffffffffull) | 0x3ff0000000000000ull);
    if (m > kSqrt2) {
        m *= 0.5;
        quarters += 4;
    }
    if (m > kRoot4Of2) {
        m *= kInvRoot4Of2;
        ++quarters;
    } else if (m < kInvRoot4Of2) {
        m *= kRoot4Of2;
        --quarters;
    }
    const double f = m - 1.0; // exact: m is within a factor 2 of 1
    // log(1 + f) = f * sum_{n >= 1} (-f)^(n-1) / n, by Horner.
    double p = kReciprocals.of[kLogTerms];
    for (int n = kLogTerms - 1; n >= 1; --n) p = kReciprocals.of[n] - f * p;
    return static_cast<double>(quarters) * kQuarterLn2 + f * p;
}

void
softmaxRows(const float* x, float* y, int64_t rows, int64_t d)
{
    for (int64_t r = 0; r < rows; ++r) {
        const float* xr = x + r * d;
        float* yr = y + r * d;
        const float m = rowMax(xr, d);
        const float inv =
            static_cast<float>(1.0 / rowExpSum<true>(xr, m, yr, d));
        for (int64_t i = 0; i < d; ++i) yr[i] *= inv;
    }
}

/** -log(1e-12f): the per-token loss cap, the 1e-12 probability floor. */
constexpr double kLossCap = 27.631021119924352;

void
crossEntropyRows(const float* x, const float* targets, double* loss,
                 int64_t rows, int64_t d)
{
    for (int64_t r = 0; r < rows; ++r) {
        const float* xr = x + r * d;
        const float m = rowMax(xr, d);
        const double lse_minus_max =
            logPositive(rowExpSum<false>(xr, m, nullptr, d));
        const int64_t t = static_cast<int64_t>(targets[r]);
        const double l = lse_minus_max - (static_cast<double>(xr[t]) -
                                          static_cast<double>(m));
        loss[r] = l > kLossCap ? kLossCap : l;
    }
}

void
crossEntropyBackwardRows(const float* x, const float* targets, float scale,
                         float* grad, int64_t rows, int64_t d)
{
    for (int64_t r = 0; r < rows; ++r) {
        const float* xr = x + r * d;
        float* gr = grad + r * d;
        const float m = rowMax(xr, d);
        const float inv =
            static_cast<float>(1.0 / rowExpSum<true>(xr, m, gr, d));
        const int64_t t = static_cast<int64_t>(targets[r]);
        const float et = gr[t];
        for (int64_t i = 0; i < d; ++i) gr[i] = gr[i] * inv * scale;
        gr[t] = (et * inv - 1.0f) * scale;
    }
}

/** Mean and (biased) variance of the row in double, in two passes. */
void
rowMoments(const float* x, int64_t d, double* mean, double* var)
{
    DoubleLanes sum = {};
    int64_t i = 0;
    for (; i + kLanes <= d; i += kLanes) sum += widen(loadLanes(x + i));
    for (int64_t j = 0; i + j < d; ++j) sum[j] += static_cast<double>(x[i + j]);
    const double mu = foldLanes(sum) / static_cast<double>(d);
    DoubleLanes sq = {};
    for (i = 0; i + kLanes <= d; i += kLanes) {
        const DoubleLanes c = widen(loadLanes(x + i)) - mu;
        sq += c * c;
    }
    for (int64_t j = 0; i + j < d; ++j) {
        const double c = static_cast<double>(x[i + j]) - mu;
        sq[j] += c * c;
    }
    *mean = mu;
    *var = foldLanes(sq) / static_cast<double>(d);
}

void
layerNormRows(const float* x, const float* gamma, const float* beta, float eps,
              float* y, int64_t rows, int64_t d)
{
    for (int64_t r = 0; r < rows; ++r) {
        const float* xr = x + r * d;
        float* yr = y + r * d;
        double mean, var;
        rowMoments(xr, d, &mean, &var);
        const float mean_f = static_cast<float>(mean);
        const float inv_std =
            static_cast<float>(1.0 / __builtin_sqrt(var + eps));
        for (int64_t i = 0; i < d; ++i) {
            yr[i] = (xr[i] - mean_f) * inv_std * gamma[i] + beta[i];
        }
    }
}

void
layerNormBackwardRows(const float* grad, const float* x, const float* gamma,
                      float eps, float* dx, float* dgamma, float* dbeta,
                      int64_t rows, int64_t d)
{
    for (int64_t r = 0; r < rows; ++r) {
        const float* xr = x + r * d;
        const float* gr = grad + r * d;
        float* dxr = dx + r * d;
        double mean, var;
        rowMoments(xr, d, &mean, &var);
        const double inv_std = 1.0 / __builtin_sqrt(var + eps);
        // g = grad * gamma; the row sums of g and g * xhat, and the
        // affine gradients' rows, in one pass.
        DoubleLanes sum_g = {};
        DoubleLanes sum_gx = {};
        int64_t i = 0;
        for (; i + kLanes <= d; i += kLanes) {
            const FloatLanes go = loadLanes(gr + i);
            const DoubleLanes go_d = widen(go);
            const DoubleLanes xhat =
                (widen(loadLanes(xr + i)) - mean) * inv_std;
            const DoubleLanes g = go_d * widen(loadLanes(gamma + i));
            sum_gx += g * xhat;
            sum_g += g;
            storeLanes(dgamma + i,
                       loadLanes(dgamma + i) +
                           __builtin_convertvector(go_d * xhat, FloatLanes));
            storeLanes(dbeta + i, loadLanes(dbeta + i) + go);
        }
        for (int64_t j = 0; i + j < d; ++j) {
            const double go_d = gr[i + j];
            const double xhat =
                (static_cast<double>(xr[i + j]) - mean) * inv_std;
            const double g = go_d * static_cast<double>(gamma[i + j]);
            sum_gx[j] += g * xhat;
            sum_g[j] += g;
            dgamma[i + j] += static_cast<float>(go_d * xhat);
            dbeta[i + j] += gr[i + j];
        }
        const double mean_g = foldLanes(sum_g) / static_cast<double>(d);
        const double mean_gx = foldLanes(sum_gx) / static_cast<double>(d);
        for (i = 0; i < d; ++i) {
            const double xhat = (static_cast<double>(xr[i]) - mean) * inv_std;
            const double g = static_cast<double>(gr[i]) * gamma[i];
            dxr[i] =
                static_cast<float>(inv_std * ((g - mean_g) - xhat * mean_gx));
        }
    }
}

// --- AdamW -----------------------------------------------------------------

/**
 * Decoupled-weight-decay Adam over n elements, returning the sum of
 * grad^2 over them, in the same pass over memory: each square, exact in
 * double, goes to lane j mod 16 and the lanes fold pairwise, so the
 * sum's bits are the same on every path. The hyper-parameters are copied
 * into locals first: `step` is a reference, and stores through the float
 * pointers could alias it, which would force a reload per element and
 * block vectorization.
 */
double
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
    auto update = [&](int64_t j) {
        const float g = grad[j];
        const float mj = beta1 * m[j] + one_minus_beta1 * g;
        const float vj = beta2 * v[j] + one_minus_beta2 * g * g;
        m[j] = mj;
        v[j] = vj;
        const float m_hat = mj / bc1;
        const float v_hat = vj / bc2;
        param[j] -= lr * (m_hat / (__builtin_sqrtf(v_hat) + eps) +
                          weight_decay * param[j]);
    };
    DoubleLanes sum = {};
    int64_t j = 0;
    for (; j + kLanes <= n; j += kLanes) {
        const DoubleLanes g = widen(loadLanes(grad + j));
        sum += g * g;
        for (int l = 0; l < kLanes; ++l) update(j + l);
    }
    if (j < n) {
        const DoubleLanes g = widen(loadPartial(grad + j, n - j, 0.0f));
        sum += g * g;
        for (; j < n; ++j) update(j);
    }
    return foldLanes(sum);
}

} // namespace
} // namespace kernels
} // namespace slapo
