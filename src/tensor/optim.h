/**
 * @file
 * AdamW optimizer over raw tensors.
 *
 * The paper trains every model with AdamW in mixed precision (§5); the
 * numeric substrate implements the fp32 reference update, and the
 * performance simulator separately accounts for the mixed-precision
 * optimizer-state memory (see sim/memory_model.h).
 */
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace slapo {

/** Hyper-parameters of the AdamW update. */
struct AdamWConfig
{
    float lr = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    float weight_decay = 0.01f;
};

/**
 * Decoupled-weight-decay Adam (Loshchilov & Hutter). Parameters are
 * registered once; each step consumes one gradient tensor per parameter
 * in registration order.
 */
class AdamW
{
  public:
    explicit AdamW(AdamWConfig config = {}) : config_(config) {}

    /** Register a parameter; returns its slot index. */
    size_t addParam(Tensor param);

    /** Number of registered parameters. */
    size_t numParams() const { return params_.size(); }

    /** Access a registered parameter tensor (shared storage). */
    Tensor& param(size_t i) { return params_[i]; }

    /**
     * Apply one AdamW step given per-parameter gradients, and return their
     * global L2 norm, summed in the same pass: g^2 in 16 double lanes per
     * fixed chunk, chunks folded in order, so the bits are the same at any
     * thread count and on every ISA path. Relative to the exact norm it
     * is within (1027 + C) * 2^-53, C being the number of chunks
     * (docs/PERFORMANCE.md, "Fused attention").
     */
    double step(const std::vector<Tensor>& grads);

    /** Steps taken so far (bias-correction counter). */
    int64_t stepCount() const { return step_count_; }

    /** First-moment (momentum) state of parameter `i` (shared storage).
     * Exposed so checkpoint/restore can serialize the exact optimizer
     * state — resuming is bitwise identical only if m, v, and the step
     * counter all round-trip. */
    Tensor& moment1(size_t i) { return m_.at(i); }

    /** Second-moment state of parameter `i` (shared storage). */
    Tensor& moment2(size_t i) { return v_.at(i); }

    /** Restore the bias-correction counter from a checkpoint. */
    void restoreStepCount(int64_t step_count) { step_count_ = step_count; }

  private:
    AdamWConfig config_;
    std::vector<Tensor> params_;
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
    /** One sum of g^2 per update chunk, every parameter's in order:
     * sized by addParam, so a step allocates nothing. */
    std::vector<double> chunk_squares_;
    int64_t step_count_ = 0;
};

} // namespace slapo
