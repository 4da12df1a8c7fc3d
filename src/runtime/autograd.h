/**
 * @file
 * Reverse-mode autodiff over traced graphs — the reproduction of
 * PyTorch's autograd for the transformer op set.
 *
 * The engine traces the model hierarchically (reusing any graph a
 * schedule already installed), runs the forward storing intermediate
 * activations, then walks the graph backwards applying per-op gradient
 * rules. Two schedule features change its behaviour:
 *
 *  - **Activation checkpointing** (`.checkpoint()`): a checkpointed
 *    CallModule stores only its boundary inputs; its internals are
 *    recomputed during backward. The engine reports stored-activation
 *    bytes so tests can observe the memory/compute trade (§2.1, §3.2.1).
 *  - **Tensor parallelism** (`.shard()` + `.sync()`): forward collectives
 *    replay through the ProcessGroup; `.sync("backward")` points issue
 *    the conjugate all-reduce on input gradients (Megatron's f/g pair).
 */
#pragma once

#include <map>
#include <memory>
#include <vector>

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
     * backward (the quantity activation checkpointing shrinks).
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
    struct Frame; // per-graph activation store

    std::shared_ptr<graph::Graph> graphFor(nn::Module& module,
                                           const std::vector<Shape>& shapes);

    std::vector<Tensor> forwardGraph(const graph::Graph& g, nn::Module* owner,
                                     const std::vector<Tensor>& inputs,
                                     Frame* frame);

    std::vector<Tensor> backwardGraph(const graph::Graph& g, nn::Module* owner,
                                      Frame& frame,
                                      const std::vector<Tensor>& grad_outputs);

    void accumulateParamGrad(const Tensor& param, const Tensor& grad);

    /** Traced graphs keyed on (module, input shapes): a traced graph bakes
     * in its input shapes, so a child called with two shapes in one run
     * needs two. Scoped to this engine. */
    std::map<const nn::Module*,
             std::map<std::vector<Shape>, std::shared_ptr<graph::Graph>>>
        graph_cache_;
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
