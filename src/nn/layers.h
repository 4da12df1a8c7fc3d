/**
 * @file
 * Framework building blocks (the reproduction of torch.nn) plus the
 * transformer blocks the paper's motivating example (§2.2, Fig. 1) and
 * the model zoo are built from, including the *efficient* replacements
 * the schedule primitives install: FusedSelfAttention (fused QKV),
 * EfficientAttention (flash-attention stand-in), FusedBiasGelu.
 *
 * Parameters are created as meta tensors; call initializeParams() to
 * materialize them for numeric runs.
 */
#pragma once

#include <cstdint>

#include "nn/functional.h"
#include "nn/module.h"

namespace slapo {
namespace nn {

/** Fresh deterministic dropout seed (monotone per process). */
uint64_t nextDropoutSeed();

/** y = x W^T + b. Weight shape (out, in): axis-0 shard = output split. */
class Linear : public Module
{
  public:
    Linear(int64_t in_features, int64_t out_features, bool bias = true);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

    int64_t inFeatures() const { return in_features_; }
    int64_t outFeatures() const { return out_features_; }
    bool hasBias() const { return has_bias_; }

  private:
    int64_t in_features_;
    int64_t out_features_;
    bool has_bias_;
};

/** LayerNorm over the last axis with affine gamma/beta. */
class LayerNorm : public Module
{
  public:
    explicit LayerNorm(int64_t dim, double eps = 1e-5);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

    int64_t dimSize() const { return dim_; }

  private:
    int64_t dim_;
    double eps_;
};

/**
 * Token embedding. When its weight is sharded on axis 0 (vocab) the
 * forward switches to vocab-parallel lookup: out-of-shard ids are masked
 * to zero so an all-reduce `.sync()` restores the full embedding — the
 * word-embedding sharding step of the paper's Fig. 10 ablation.
 */
class Embedding : public Module
{
  public:
    Embedding(int64_t vocab, int64_t dim);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

    int64_t vocabSize() const { return vocab_; }

    /**
     * Grow the table to `new_vocab` rows (zero-padded), the standard
     * Megatron trick to make the vocabulary divisible by the
     * tensor-parallel degree before sharding. No-op if already large
     * enough; padded rows are never indexed.
     */
    void padVocabTo(int64_t new_vocab);

  private:
    int64_t vocab_;
    int64_t dim_;
};

/** Learned positional embedding added to [B, S, H] hidden states. */
class PositionalEmbedding : public Module
{
  public:
    PositionalEmbedding(int64_t max_positions, int64_t dim);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

  private:
    int64_t max_positions_;
    int64_t dim_;
};

/** Inverted dropout with a stable per-instance seed. */
class Dropout : public Module
{
  public:
    explicit Dropout(double p);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

    double p() const { return p_; }
    uint64_t seed() const { return seed_; }
    void setSeed(uint64_t seed) { seed_ = seed; }

  private:
    double p_;
    uint64_t seed_;
};

/** Elementwise activation module. */
class Activation : public Module
{
  public:
    enum class Kind { Gelu, Relu, Tanh };

    explicit Activation(Kind kind);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

  private:
    static const char* nameOf(Kind kind);
    Kind kind_;
};

/**
 * Chain of children "0", "1", ...: output of each feeds the next. Also
 * serves as the ModuleList for transformer layer stacks
 * ("encoder.layer.3" resolves through it).
 */
class Sequential : public Module
{
  public:
    Sequential() : Module("Sequential") {}
    explicit Sequential(std::vector<ModulePtr> modules);

    void append(ModulePtr module);
    int64_t length() const { return static_cast<int64_t>(children().size()); }

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;
};

/**
 * The paper's Fig. 1 "pink block": scaled dot-product attention over
 * already-projected q, k, v — scale, baddbmm, softmax, dropout, matmul.
 * Materializes the (B, heads, S, S) score tensor, the memory bottleneck
 * flash attention removes. Takes (q, k, v), or the packed [B, S, 3H]
 * output of FusedSelfAttention, which it narrows into its thirds.
 */
class CoreAttention : public Module
{
  public:
    /**
     * @param head_dim per-head feature size. The head count is derived
     *        from the incoming hidden size at forward time, so a
     *        tensor-parallel shard of the projections transparently runs
     *        with hidden/ws features and heads/ws heads (Megatron-style).
     */
    CoreAttention(int64_t head_dim, double dropout_p, bool causal);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

    int64_t headDim() const { return head_dim_; }
    bool causal() const { return causal_; }
    double dropoutP() const { return dropout_p_; }
    uint64_t dropoutSeed() const { return dropout_seed_; }
    void setDropoutSeed(uint64_t seed) { dropout_seed_ = seed; }

    /**
     * Megatron-style fused scale-mask-softmax(-dropout): the score
     * normalization executes as one kernel that keeps only the final
     * probability tensor for backward (unlike flash attention, the
     * (B, h, Sq, Sk) probs are still materialized). Numerically
     * identical; affects only the profiled cost signature.
     */
    void setFusedSoftmax(bool enabled) { fused_softmax_ = enabled; }
    bool fusedSoftmax() const { return fused_softmax_; }

    /**
     * T5-style learned relative position bias added to the attention
     * scores (the HF implementation detail §5.2 credits for Megatron's
     * T5 speed edge — Megatron uses fixed embeddings instead). Registers
     * the "rel_bias" table of shape (num_heads, 2*buckets - 1); shard it
     * on axis 0 together with the q/k/v projections under TP.
     */
    void enableRelativeBias(int64_t num_heads, int64_t buckets);
    void disableRelativeBias();
    bool hasRelativeBias() const { return hasParam("rel_bias"); }

  protected:
    CoreAttention(std::string type_name, int64_t head_dim, double dropout_p,
                  bool causal);

  private:
    int64_t head_dim_;
    double dropout_p_;
    bool causal_;
    uint64_t dropout_seed_;
    bool fused_softmax_ = false;
};

/**
 * Flash-attention stand-in (xFormers mem_eff_attention in the paper): one
 * fused attention op (F::attention) in place of CoreAttention's graph,
 * bit-identical to it. It reads q, k and v in place, from the packed QKV
 * or three tensors, keeps one head's scores in scratch only, and records
 * nothing but its output for backward, which recomputes the scores and
 * probabilities: the kernel's memory and time effect, measured.
 */
class EfficientAttention : public CoreAttention
{
  public:
    EfficientAttention(int64_t head_dim, double dropout_p, bool causal);

    /** Build a drop-in replacement for an existing core attention. */
    static ModulePtr fromCore(const CoreAttention& core);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;

    bool profileAsKernel() const override { return true; }
    /** With a T5 relative bias the kernel's internal recompute must
     * rebuild the bucketed bias too — recompute is no longer free. */
    bool recomputeFree() const override { return !hasRelativeBias(); }
    ModulePtr clone() const override;
};

/**
 * Q/K/V as three standalone Linears + core attention — the HuggingFace
 * BertSelfAttention layout of Fig. 1(a).
 */
class SelfAttention : public Module
{
  public:
    /** @param relative_buckets > 0 enables the T5-style learned relative
     *        position bias on the score matrix. */
    SelfAttention(int64_t hidden, int64_t num_heads, double dropout_p,
                  bool causal, int64_t relative_buckets = 0);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

    int64_t hidden() const { return hidden_; }
    int64_t numHeads() const { return num_heads_; }

  private:
    int64_t hidden_;
    int64_t num_heads_;
    double dropout_p_;
    bool causal_;
};

/**
 * Fused-QKV attention — optimization ① of §2.2: one (3H, H) Linear whose
 * [B, S, 3H] output goes to the core whole, saving two kernel launches.
 */
class FusedSelfAttention : public Module
{
  public:
    FusedSelfAttention(int64_t hidden, int64_t num_heads, double dropout_p,
                       bool causal);

    /**
     * Build from an existing SelfAttention, concatenating its q/k/v
     * weights so the replacement is numerically identical (what the
     * `.replace()` verifier checks).
     */
    static ModulePtr fromSelfAttention(SelfAttention& attn);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

  private:
    int64_t hidden_;
    int64_t num_heads_;
    double dropout_p_;
    bool causal_;
};

/**
 * Post-attention projection (HF BertSelfOutput): dense + dropout +
 * residual add + LayerNorm. Inputs: (context, residual).
 */
class Projection : public Module
{
  public:
    Projection(int64_t hidden, double dropout_p, bool pre_norm = false);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

  private:
    int64_t hidden_;
    double dropout_p_;
    bool pre_norm_; ///< skip the post-LN (GPT-style pre-LN blocks)
};

/** Feed-forward block: dense(H→I) + GeLU + dense(I→H) + dropout +
 * residual + LayerNorm (post-norm) or without LN (pre-norm). */
class FFN : public Module
{
  public:
    FFN(int64_t hidden, int64_t intermediate, double dropout_p,
        bool pre_norm = false);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

    int64_t intermediate() const { return intermediate_; }
    int64_t hidden() const { return hidden_; }
    bool preNorm() const { return pre_norm_; }

  private:
    int64_t hidden_;
    int64_t intermediate_;
    double dropout_p_;
    bool pre_norm_;
};

/**
 * Hand-written fused bias+GeLU kernel (the Megatron bias_gelu fusion the
 * paper schedules in Fig. 10). Replaces the {add bias, gelu} subgraph of
 * a decomposed Linear; executes as one launch.
 */
class FusedBiasGelu : public Module
{
  public:
    explicit FusedBiasGelu(Tensor bias);

    bool profileAsKernel() const override { return true; }
    bool recomputeFree() const override { return true; }

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;
};

/**
 * Vocabulary-parallel output projection (Megatron's column-parallel LM
 * head): the (vocab, hidden) weight is zero-padded to a multiple of the
 * world size and sharded on axis 0; the forward all-gathers the partial
 * logits and narrows away the padding, so callers always see the
 * original vocabulary width. Works identically un-sharded (reference /
 * single-device runs) because the padded rows produce logits that are
 * sliced off. Its backward all-reduces the input gradient (a
 * `.sync(backward)` declared with the shard), since each rank's share
 * covers only its slice of the vocabulary.
 */
class VocabParallelLinear : public Module
{
  public:
    VocabParallelLinear(int64_t in_features, int64_t vocab, bool bias,
                        int world_size);

    /** Drop-in replacement for an existing head linear (weights copied,
     * padded, and marked sharded). */
    static ModulePtr fromLinear(Linear& linear, int world_size);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

    int64_t vocabSize() const { return vocab_; }
    int64_t paddedVocab() const { return padded_vocab_; }

  private:
    int64_t in_features_;
    int64_t vocab_;
    int64_t padded_vocab_;
    bool has_bias_;
    int world_size_;
};

/** 2-D convolution leaf (NCHW, square kernel, zero padding). */
class Conv2d : public Module
{
  public:
    Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
           int64_t stride, int64_t pad);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

  private:
    int64_t in_channels_;
    int64_t out_channels_;
    int64_t kernel_;
    int64_t stride_;
    int64_t pad_;
};

/** Batch normalization leaf (batch statistics, NCHW). */
class BatchNorm2d : public Module
{
  public:
    explicit BatchNorm2d(int64_t channels, double eps = 1e-5);

    std::vector<Value> forward(const std::vector<Value>& inputs) override;
    ModulePtr clone() const override;

  private:
    int64_t channels_;
    double eps_;
};

} // namespace nn
} // namespace slapo
