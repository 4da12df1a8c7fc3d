/**
 * @file
 * nn::F — the op surface module forwards are written against.
 *
 * Every function dispatches on ambient context (see context.h):
 * symbolic-trace, eager-numeric, or meta shape propagation, reporting its
 * cost signature to an active CostRecorder. This single dispatch point is
 * what lets one model definition serve eager execution, tracing,
 * verification, and performance simulation — the reproduction of the
 * PyTorch/torch.fx substrate the paper builds on.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nn/value.h"

namespace slapo {
namespace nn {
namespace F {

Value add(const Value& a, const Value& b);
Value sub(const Value& a, const Value& b);
Value mul(const Value& a, const Value& b);
Value div(const Value& a, const Value& b);
Value scale(const Value& a, double factor);
Value addScalar(const Value& a, double value);

Value gelu(const Value& a);
Value relu(const Value& a);
Value tanh(const Value& a);
Value clampScalar(const Value& a, double lo, double hi);
Value rangeMask(const Value& a, double lo, double hi);
Value causalMask(const Value& scores);
/** T5 relative position bias: scores + table[h, clip(j - i)]. */
Value relPosBias(const Value& scores, const Value& table);

Value softmax(const Value& a);
/**
 * Fused scaled dot-product attention (ops::attention): `inputs` is the
 * packed QKV [B, S, 3H] or (q, k, v), then optionally the relative-bias
 * table. Returns the [B, Sq, H] context; one graph node, whose backward
 * recomputes the scores and probabilities. Reports the FLOPs of the
 * decomposed ops it replaces (CoreAttention's).
 */
Value attention(const std::vector<Value>& inputs, int64_t head_dim,
                bool causal, double dropout_p, int64_t seed);
Value layerNorm(const Value& x, const Value& gamma, const Value& beta,
                double eps);
Value dropout(const Value& x, double p, int64_t seed);

Value matmul(const Value& a, const Value& b);
/** x @ w^T + b; pass a default-constructed Value to omit the bias. */
Value linear(const Value& x, const Value& w, const Value& b);
Value transposeLast2(const Value& a);
Value reshape(const Value& a, Shape shape);
Value permute(const Value& a, std::vector<int64_t> perm);
Value concat(const std::vector<Value>& parts, int64_t axis);
Value narrow(const Value& a, int64_t axis, int64_t start, int64_t length);

Value embedding(const Value& ids, const Value& table);
Value crossEntropy(const Value& logits, const Value& targets);
Value mseLoss(const Value& pred, const Value& target);

Value conv2d(const Value& x, const Value& w, int64_t stride, int64_t pad);
Value batchNorm2d(const Value& x, const Value& gamma, const Value& beta,
                  double eps);
Value globalAvgPool(const Value& x);

Value identity(const Value& a);

// Collectives (declared alongside Module in module.h as well):
Value allReduce(const Value& x);
Value allGather(const Value& x, int64_t axis);
Value reduceScatter(const Value& x, int64_t axis);

} // namespace F
} // namespace nn
} // namespace slapo
