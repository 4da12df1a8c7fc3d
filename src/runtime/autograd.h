/**
 * @file
 * Reverse-mode autodiff over traced graphs — the reproduction of
 * PyTorch's autograd for the transformer op set.
 *
 * The engine runs the training forward through the one forward
 * executor, nn::interpretGraph, with a recording nn::Frame: every
 * intermediate activation is kept, and every child module records into
 * a child frame over the graph the engine's nn::GraphCache gives for it
 * (a schedule's installed graph, else a trace made on first use). It
 * then walks the recorded graphs backwards applying per-op gradient
 * rules. Two schedule features change its behaviour:
 *
 *  - **Activation checkpointing** (`.checkpoint()`): a checkpointed
 *    CallModule keeps no frame, only its boundary inputs; backward
 *    recomputes its internals through interpretGraph. The engine reports
 *    stored-activation bytes so tests can observe the memory/compute
 *    trade (§2.1, §3.2.1).
 *  - **Tensor parallelism** (`.shard()` + `.sync()`): forward syncs apply
 *    at each module's call boundary, in Module::call, exactly as in eval,
 *    and backward takes their gradients at the same boundary;
 *    `.sync("backward")` points issue the conjugate all-reduce on input
 *    gradients (Megatron's f/g pair).
 */
#pragma once

#include <map>
#include <vector>

#include "nn/interpreter.h"
#include "nn/module.h"

namespace slapo {
namespace runtime {

/** Result of one forward+backward pass. */
struct GradResult
{
    /** Model outputs (typically a scalar loss). */
    std::vector<Tensor> outputs;
    /** Gradients keyed by parameter storage identity (Tensor::storageKey). */
    std::map<const void*, Tensor> param_grads;
    /** Gradients w.r.t. the model inputs (zero tensors for integer ids). */
    std::vector<Tensor> input_grads;
    /**
     * Bytes of intermediate activations retained between forward and
     * backward (the quantity activation checkpointing shrinks), counted
     * once per storage: a reshape view or a p = 0 dropout's alias of an
     * activation adds nothing, nor does a view of a parameter.
     */
    int64_t stored_activation_bytes = 0;
    /** Extra forward FLOPs-proxy recomputed due to checkpointing: number
     * of recomputed graph nodes. */
    int64_t recomputed_nodes = 0;
};

/**
 * Run forward+backward of `model` on `inputs`. The model must end in a
 * scalar output (shape [1]); seed the backward with d(out)/d(out) = 1.
 */
class AutogradEngine
{
  public:
    AutogradEngine() = default;

    GradResult run(nn::Module& model, const std::vector<Tensor>& inputs);

    /** Gradient lookup helper for optimizers. */
    static Tensor gradFor(const GradResult& result, const Tensor& param);

  private:
    /** Backward of one module call recorded in `frame`, `.sync()`
     * points included: the gradients of its forward syncs, its graph's
     * backward, then its backward syncs on the input gradient. */
    std::vector<Tensor> backwardModule(nn::Module& module, nn::Frame& frame,
                                       const std::vector<Tensor>& grad_outputs);

    std::vector<Tensor> backwardGraph(nn::Frame& frame,
                                      const std::vector<Tensor>& grad_outputs);

    void accumulateParamGrad(const Tensor& param, Tensor grad);

    nn::GraphCache graphs_;
    GradResult result_;
};

/**
 * Convenience loss heads: wrap a single-output model into a model whose
 * output is a scalar training loss (inputs: model inputs + target).
 */
nn::ModulePtr withCrossEntropyLoss(nn::ModulePtr model);
nn::ModulePtr withMseLoss(nn::ModulePtr model);

} // namespace runtime
} // namespace slapo
