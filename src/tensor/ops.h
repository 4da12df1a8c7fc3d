/**
 * @file
 * Numeric CPU kernels over materialized tensors.
 *
 * These are the "CUDA kernels" of the reproduction: every graph op and
 * leaf module executes through one of these when running numerically
 * (verifier, distributed runtime, training examples). Shapes follow
 * PyTorch conventions; `linear` uses a (out_features, in_features)
 * weight, matching the paper's Fig. 3 note that sharding weight axis 0
 * partitions the *output* dimension.
 *
 * Backward kernels for the transformer op set live here too so the graph
 * executor can run true backprop for training and gradient-sync checks.
 */
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace slapo {
namespace ops {

// --- elementwise / broadcast -------------------------------------------

/** Elementwise a + b with numpy broadcasting. */
Tensor add(const Tensor& a, const Tensor& b);
/** Elementwise a - b with numpy broadcasting. */
Tensor sub(const Tensor& a, const Tensor& b);
/** Elementwise a * b with numpy broadcasting. */
Tensor mul(const Tensor& a, const Tensor& b);
/** Elementwise a / b with numpy broadcasting. */
Tensor div(const Tensor& a, const Tensor& b);
/** a * scalar. */
Tensor scale(const Tensor& a, float factor);
/** a + scalar. */
Tensor addScalar(const Tensor& a, float value);

// In-place twins used by the memory planner's buffer-reuse rewrite
// (graph/memplan.h). Each runs the exact same per-element arithmetic as
// its out-of-place version (shared kernel cores), writing the result
// over the first operand — so planner-on and planner-off execution are
// bit-identical. The binary forms require identical shapes (no
// broadcasting); the planner only marks such nodes.
void addInPlace(Tensor& a, const Tensor& b);
void subInPlace(Tensor& a, const Tensor& b);
void mulInPlace(Tensor& a, const Tensor& b);
void divInPlace(Tensor& a, const Tensor& b);
void scaleInPlace(Tensor& a, float factor);
void addScalarInPlace(Tensor& a, float value);
void geluInPlace(Tensor& a);
void reluInPlace(Tensor& a);
void tanhInPlace(Tensor& a);
void clampScalarInPlace(Tensor& a, float lo, float hi);
void rangeMaskInPlace(Tensor& a, float lo, float hi);
void causalMaskInPlace(Tensor& scores);
void softmaxInPlace(Tensor& a);

/** tanh-approximated GeLU (the variant BERT/GPT use). gelu, geluBackward
 * and tanhOp (and their in-place twins) run the ISA-dispatched, libm-free
 * tanh of tensor/kernels.h. */
Tensor gelu(const Tensor& a);
/** Derivative of gelu at `a`, multiplied by upstream `grad`. */
Tensor geluBackward(const Tensor& grad, const Tensor& a);

Tensor relu(const Tensor& a);
Tensor reluBackward(const Tensor& grad, const Tensor& a);

Tensor tanhOp(const Tensor& a);
/** d/dx tanh given the forward *output* y: grad * (1 - y^2). */
Tensor tanhBackward(const Tensor& grad, const Tensor& y);

/** Clamp every element into [lo, hi]. */
Tensor clampScalar(const Tensor& a, float lo, float hi);

/** 1.0 where lo <= a < hi, else 0.0 (vocab-parallel embedding mask). */
Tensor rangeMask(const Tensor& a, float lo, float hi);

/**
 * Additive causal mask over the last two (query, key) axes: positions
 * with key index > query index get -1e9 added (pre-softmax).
 */
Tensor causalMask(const Tensor& scores);

/**
 * T5-style relative position bias: scores[b, h, i, j] +=
 * table[h, clip(j - i) + buckets - 1] with the relative distance clipped
 * to [-(buckets-1), buckets-1]. `table` has shape (heads, 2*buckets - 1).
 */
Tensor relPosBias(const Tensor& scores, const Tensor& table);

/** Scatter-add the upstream gradient into a zero table gradient. */
Tensor relPosBiasTableBackward(const Tensor& grad, const Shape& table_shape);

// --- reductions ---------------------------------------------------------

/** Sum of all elements (returns scalar-shaped tensor [1]). */
Tensor sumAll(const Tensor& a);
/** Mean of all elements (returns scalar-shaped tensor [1]). */
Tensor meanAll(const Tensor& a);
/**
 * Reduce `grad_out` (shaped like the broadcast result) back to `shape` by
 * summing over broadcast dimensions. Used by binary-op backward.
 */
Tensor reduceToShape(const Tensor& grad_out, const Shape& shape);

// --- linear algebra ------------------------------------------------------

/**
 * Batched matrix multiply: a[..., m, k] @ b[..., k, n] -> [..., m, n].
 * Leading (batch) dimensions broadcast.
 */
Tensor matmul(const Tensor& a, const Tensor& b);

/** Swap the last two axes (copying). */
Tensor transposeLast2(const Tensor& a);

/**
 * x[..., in] @ weight[out, in]^T + bias[out]. `bias` may be an empty
 * tensor (numel 0) to skip the addition (used after bias-fusion).
 */
Tensor linear(const Tensor& x, const Tensor& weight, const Tensor& bias);

/** Gradients of linear wrt x, weight, bias. */
struct LinearGrads
{
    Tensor grad_x;
    Tensor grad_weight;
    Tensor grad_bias;
};
LinearGrads linearBackward(const Tensor& grad_out, const Tensor& x,
                           const Tensor& weight, bool has_bias);

// --- normalization / softmax ---------------------------------------------

/** Softmax over the last axis. */
Tensor softmax(const Tensor& a);
/** Backward of softmax given forward output y. */
Tensor softmaxBackward(const Tensor& grad, const Tensor& y);

/** LayerNorm over the last axis with affine gamma/beta. */
Tensor layerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps);
struct LayerNormGrads
{
    Tensor grad_x;
    Tensor grad_gamma;
    Tensor grad_beta;
};
LayerNormGrads layerNormBackward(const Tensor& grad_out, const Tensor& x,
                                 const Tensor& gamma, float eps);

// --- regularization -------------------------------------------------------

/**
 * Inverted dropout with a deterministic mask derived from `seed`: one
 * Rng draw per element, in flat order. With p == 0 this is the identity
 * and returns `a` itself, sharing its storage (no copy), which the
 * verifier relies on for exact equivalence checks.
 */
Tensor dropout(const Tensor& a, float p, uint64_t seed);
/** Backward replays the identical mask from `seed` (at p == 0 it returns
 * `grad` itself). */
Tensor dropoutBackward(const Tensor& grad, float p, uint64_t seed);

// --- attention ----------------------------------------------------------

/** The attributes of one fused attention call. */
struct AttentionSpec
{
    int64_t head_dim = 0;
    bool causal = false;
    float dropout_p = 0.0f;
    uint64_t seed = 0;
};

/**
 * Fused scaled dot-product attention: per head, softmax(q * scale @ k^T
 * + bias + causal mask), dropout, @ v, with scale = 1 / sqrt(head_dim).
 *
 * `inputs` is either the packed QKV output [B, S, 3H] (q, k and v its
 * thirds, each H = heads * head_dim wide) or q [B, Sq, H] with k and v
 * [B, Sk, H]; a T5 relative-bias table [heads, 2 * buckets - 1] may follow
 * (relPosBias). q, k and v are read in place, head by head, and the
 * context is written straight into its [B, Sq, H] output: no split,
 * head permute or transpose copies. One head's [Sq, Sk] scores live only
 * in a chunk's scratch.
 *
 * The bits equal the decomposed graph's (nn::CoreAttention): the same
 * per-element q * scale, the same fused multiply-add chains in every
 * GEMM, and the same bias, mask, softmax and dropout kernels.
 */
Tensor attention(const std::vector<Tensor>& inputs, const AttentionSpec& spec);

/**
 * Gradients of `attention` for each of `inputs`, recomputing the scores
 * and probabilities from q and k as flash attention does. A packed QKV
 * gets one [B, S, 3H] gradient that dq, dk and dv are written into.
 */
std::vector<Tensor> attentionBackward(const Tensor& grad,
                                      const std::vector<Tensor>& inputs,
                                      const AttentionSpec& spec);

// --- shape manipulation ----------------------------------------------------

/** Concatenate along `axis` (negative axes allowed). */
Tensor concat(const std::vector<Tensor>& parts, int64_t axis);
/** Split into `n` equal chunks along `axis`. */
std::vector<Tensor> chunk(const Tensor& a, int64_t n, int64_t axis);
/** Narrow: slice [start, start+length) along `axis` (copying). */
Tensor narrow(const Tensor& a, int64_t axis, int64_t start, int64_t length);
/**
 * Add `grad` into the narrowed region of `grad_in`, the gradient of the
 * narrow's input: grad_in[..., start + i, ...] += grad[..., i, ...]
 * along `axis`. The backward walk zero-fills the input's gradient once and
 * adds every narrow of it into its slice.
 */
void narrowBackwardInto(const Tensor& grad, Tensor& grad_in, int64_t axis,
                        int64_t start);
/**
 * Permute axes by `perm` (a permutation of 0..rank-1), copying. Used for
 * the attention head reshuffles [B,S,H] <-> [B,heads,S,dh].
 */
Tensor permute(const Tensor& a, const std::vector<int64_t>& perm);

// --- embedding / loss -------------------------------------------------------

/** Row-gather: ids[...], table[vocab, dim] -> [..., dim]. */
Tensor embedding(const Tensor& ids, const Tensor& table);
/** Scatter-add of grad rows back into a zero table gradient. */
Tensor embeddingBackward(const Tensor& grad_out, const Tensor& ids,
                         int64_t vocab);

/** Mean squared error (scalar [1]). */
Tensor mseLoss(const Tensor& pred, const Tensor& target);
/** Gradient of mseLoss wrt pred. */
Tensor mseLossBackward(const Tensor& pred, const Tensor& target);

/**
 * Mean cross-entropy between logits[..., vocab] and integer targets[...].
 * Returns scalar [1]. Each token's loss is capped at -log(1e-12f), a
 * 1e-12 floor on its probability.
 */
Tensor crossEntropy(const Tensor& logits, const Tensor& targets);
/** Gradient of crossEntropy wrt the logits, times `scale` (the loss's
 * upstream gradient): (softmax - one-hot) * scale / rows, in one pass. */
Tensor crossEntropyBackward(const Tensor& logits, const Tensor& targets,
                            float scale = 1.0f);

// --- convolution (WideResNet substrate; forward only) ------------------------

/**
 * Naive NCHW conv2d: x[B,Cin,H,W], w[Cout,Cin,kh,kw], stride, same-style
 * zero padding `pad`. Forward-only: the image-classification model is
 * exercised by the simulator and the forward verifier, not by training.
 */
Tensor conv2d(const Tensor& x, const Tensor& w, int64_t stride, int64_t pad);

/** Per-channel batch norm using batch statistics (training mode). */
Tensor batchNorm2d(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                   float eps);

/** Global average pool NCHW -> [B, C]. */
Tensor globalAvgPool(const Tensor& x);

} // namespace ops
} // namespace slapo
