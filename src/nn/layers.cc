#include "nn/layers.h"

#include <atomic>
#include <cmath>

#include "tensor/ops.h"

namespace slapo {
namespace nn {

uint64_t
nextDropoutSeed()
{
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1);
}

// --- Linear ---------------------------------------------------------------

Linear::Linear(int64_t in_features, int64_t out_features, bool bias)
    : Module("Linear"),
      in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias)
{
    registerParam("weight", Tensor::meta({out_features, in_features}));
    if (bias) {
        registerParam("bias", Tensor::meta({out_features}));
    }
}

std::vector<Value>
Linear::forward(const std::vector<Value>& inputs)
{
    const Value& x = inputs[0];
    if (meta().decomposed && has_bias_) {
        // Bias split out as a separate Add so graph-level passes (fuse
        // bias+gelu, bias+dropout+residual+LN) can grab it — §2.2 step ②.
        Value y = F::linear(x, param("weight"), Value());
        return {F::add(y, param("bias"))};
    }
    return {F::linear(x, param("weight"),
                      has_bias_ ? param("bias") : Value())};
}

ModulePtr
Linear::clone() const
{
    auto m = std::make_shared<Linear>(in_features_, out_features_, has_bias_);
    cloneInto(m.get());
    return m;
}

// --- LayerNorm ---------------------------------------------------------------

LayerNorm::LayerNorm(int64_t dim, double eps)
    : Module("LayerNorm"), dim_(dim), eps_(eps)
{
    registerParam("gamma", Tensor::meta({dim}));
    registerParam("beta", Tensor::meta({dim}));
}

std::vector<Value>
LayerNorm::forward(const std::vector<Value>& inputs)
{
    return {F::layerNorm(inputs[0], param("gamma"), param("beta"), eps_)};
}

ModulePtr
LayerNorm::clone() const
{
    auto m = std::make_shared<LayerNorm>(dim_, eps_);
    cloneInto(m.get());
    return m;
}

// --- Embedding ---------------------------------------------------------------

Embedding::Embedding(int64_t vocab, int64_t dim)
    : Module("Embedding"), vocab_(vocab), dim_(dim)
{
    registerParam("weight", Tensor::meta({vocab, dim}));
}

std::vector<Value>
Embedding::forward(const std::vector<Value>& inputs)
{
    const Value& ids = inputs[0];
    auto it = meta().sharded_params.find("weight");
    if (it != meta().sharded_params.end() && it->second.axis == 0) {
        // Vocab-parallel lookup: this rank's table covers rows
        // [rank * per, (rank + 1) * per); foreign ids contribute zero and
        // the scheduled all-reduce sync sums the partial embeddings.
        DistContext* dc = DistContext::current();
        const int rank = dc ? dc->rank : 0;
        const int64_t per = vocab_ / it->second.world_size;
        const double start = static_cast<double>(rank) * per;
        Value local = F::clampScalar(F::addScalar(ids, -start), 0,
                                     static_cast<double>(per - 1));
        Value emb = F::embedding(local, param("weight"));
        Value mask = F::rangeMask(ids, start, start + per);
        Shape mask_shape = ids.shape();
        mask_shape.push_back(1);
        return {F::mul(emb, F::reshape(mask, mask_shape))};
    }
    return {F::embedding(ids, param("weight"))};
}

void
Embedding::padVocabTo(int64_t new_vocab)
{
    if (new_vocab <= vocab_) {
        return;
    }
    Tensor& table = paramTensor("weight");
    if (table.isMeta()) {
        setParamTensor("weight", Tensor::meta({new_vocab, dim_}));
    } else {
        Tensor padded = Tensor::zeros({new_vocab, dim_});
        std::copy(table.data(), table.data() + table.numel(), padded.data());
        setParamTensor("weight", padded);
    }
    vocab_ = new_vocab;
}

ModulePtr
Embedding::clone() const
{
    auto m = std::make_shared<Embedding>(vocab_, dim_);
    cloneInto(m.get());
    // cloneInto copied the (possibly padded) table; keep vocab in sync.
    m->vocab_ = m->paramTensor("weight").shape()[0];
    return m;
}

// --- PositionalEmbedding ------------------------------------------------------

PositionalEmbedding::PositionalEmbedding(int64_t max_positions, int64_t dim)
    : Module("PositionalEmbedding"), max_positions_(max_positions), dim_(dim)
{
    registerParam("weight", Tensor::meta({max_positions, dim}));
}

std::vector<Value>
PositionalEmbedding::forward(const std::vector<Value>& inputs)
{
    const Value& x = inputs[0]; // [B, S, H]
    const int64_t seq = x.shape()[x.shape().size() - 2];
    SLAPO_CHECK(seq <= max_positions_,
                "PositionalEmbedding: sequence " << seq
                                                 << " exceeds max positions "
                                                 << max_positions_);
    Value pe = F::narrow(param("weight"), 0, 0, seq);
    return {F::add(x, F::reshape(pe, {1, seq, dim_}))};
}

ModulePtr
PositionalEmbedding::clone() const
{
    auto m = std::make_shared<PositionalEmbedding>(max_positions_, dim_);
    cloneInto(m.get());
    return m;
}

// --- Dropout ---------------------------------------------------------------

Dropout::Dropout(double p) : Module("Dropout"), p_(p), seed_(nextDropoutSeed())
{
}

std::vector<Value>
Dropout::forward(const std::vector<Value>& inputs)
{
    return {F::dropout(inputs[0], p_, static_cast<int64_t>(seed_))};
}

ModulePtr
Dropout::clone() const
{
    auto m = std::make_shared<Dropout>(p_);
    cloneInto(m.get());
    m->seed_ = seed_; // replicas must sample identical masks
    return m;
}

// --- Activation ---------------------------------------------------------------

const char*
Activation::nameOf(Kind kind)
{
    switch (kind) {
      case Kind::Gelu: return "GELU";
      case Kind::Relu: return "ReLU";
      case Kind::Tanh: return "TanhAct";
    }
    return "?";
}

Activation::Activation(Kind kind) : Module(nameOf(kind)), kind_(kind) {}

std::vector<Value>
Activation::forward(const std::vector<Value>& inputs)
{
    switch (kind_) {
      case Kind::Gelu: return {F::gelu(inputs[0])};
      case Kind::Relu: return {F::relu(inputs[0])};
      case Kind::Tanh: return {F::tanh(inputs[0])};
    }
    SLAPO_THROW("Activation: bad kind");
}

ModulePtr
Activation::clone() const
{
    auto m = std::make_shared<Activation>(kind_);
    cloneInto(m.get());
    return m;
}

// --- Sequential ---------------------------------------------------------------

Sequential::Sequential(std::vector<ModulePtr> modules) : Module("Sequential")
{
    for (auto& m : modules) {
        append(std::move(m));
    }
}

void
Sequential::append(ModulePtr module)
{
    registerChild(std::to_string(children().size()), std::move(module));
}

std::vector<Value>
Sequential::forward(const std::vector<Value>& inputs)
{
    std::vector<Value> current = inputs;
    for (const auto& [name, child] : children()) {
        current = callChild(name, current);
    }
    return current;
}

ModulePtr
Sequential::clone() const
{
    auto m = std::make_shared<Sequential>();
    cloneInto(m.get());
    return m;
}

// --- CoreAttention ---------------------------------------------------------------

CoreAttention::CoreAttention(int64_t head_dim, double dropout_p, bool causal)
    : CoreAttention("CoreAttention", head_dim, dropout_p, causal)
{
}

CoreAttention::CoreAttention(std::string type_name, int64_t head_dim,
                             double dropout_p, bool causal)
    : Module(std::move(type_name)),
      head_dim_(head_dim),
      dropout_p_(dropout_p),
      causal_(causal),
      dropout_seed_(nextDropoutSeed())
{
}

std::vector<Value>
CoreAttention::forward(const std::vector<Value>& inputs)
{
    SLAPO_CHECK(inputs.size() == 1 || inputs.size() == 3,
                typeName() << ": expects qkv or (q, k, v), got "
                           << inputs.size() << " inputs");
    std::vector<Value> qkv = inputs;
    if (inputs.size() == 1) {
        // The packed [B, S, 3 * H_local] QKV of FusedSelfAttention.
        const int64_t h_local = inputs[0].shape().back() / 3;
        qkv = {F::narrow(inputs[0], -1, 0, h_local),
               F::narrow(inputs[0], -1, h_local, h_local),
               F::narrow(inputs[0], -1, 2 * h_local, h_local)};
    }
    const Value& q = qkv[0];
    const Value& k = qkv[1];
    const Value& v = qkv[2];
    const Shape& s = q.shape(); // [B, S, H_local]
    SLAPO_CHECK(s.size() == 3, typeName() << ": expects [B, S, H] inputs");
    const int64_t batch = s[0];
    const int64_t seq = s[1];
    const int64_t hidden = s[2];
    SLAPO_CHECK(hidden % head_dim_ == 0,
                typeName() << ": hidden " << hidden
                           << " not divisible by head dim " << head_dim_);
    const int64_t heads = hidden / head_dim_;

    // Cross-attention may have a key/value sequence length differing
    // from the query's (T5 decoder), so split heads per tensor.
    auto split_heads = [&](const Value& x, std::vector<int64_t> perm) {
        const int64_t s_x = x.shape()[1];
        return F::permute(F::reshape(x, {batch, s_x, heads, head_dim_}),
                          std::move(perm));
    };
    Value qh = split_heads(q, {0, 2, 1, 3}); // [B, h, Sq, d]
    Value kh = split_heads(k, {0, 2, 3, 1}); // [B, h, d, Sk]
    Value vh = split_heads(v, {0, 2, 1, 3}); // [B, h, Sk, d]

    const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));
    CostRecorder* prof = CostRecorder::current();
    const bool fused_scope =
        fused_softmax_ && prof != nullptr && TracingState::current() == nullptr;
    if (fused_scope) {
        prof->beginKernelScope("fused_scale_mask_softmax",
                               /*recompute_free=*/false);
    }
    Value scores = F::matmul(F::scale(qh, scale), kh); // [B, h, Sq, Sk]
    if (hasParam("rel_bias")) {
        scores = F::relPosBias(scores, param("rel_bias"));
    }
    if (causal_) {
        scores = F::causalMask(scores);
    }
    Value probs = F::softmax(scores);
    probs = F::dropout(probs, dropout_p_, static_cast<int64_t>(dropout_seed_));
    if (fused_scope) {
        prof->endKernelScope();
    }
    Value context = F::matmul(probs, vh); // [B, h, Sq, d]
    context = F::permute(context, {0, 2, 1, 3});
    return {F::reshape(context, {batch, seq, hidden})};
}

void
CoreAttention::enableRelativeBias(int64_t num_heads, int64_t buckets)
{
    SLAPO_CHECK(!hasParam("rel_bias"),
                typeName() << ": relative bias already enabled");
    registerParam("rel_bias", Tensor::meta({num_heads, 2 * buckets - 1}));
}

void
CoreAttention::disableRelativeBias()
{
    if (hasParam("rel_bias")) {
        removeParam("rel_bias");
    }
}

ModulePtr
CoreAttention::clone() const
{
    auto m = std::make_shared<CoreAttention>(head_dim_, dropout_p_, causal_);
    cloneInto(m.get());
    m->dropout_seed_ = dropout_seed_;
    m->fused_softmax_ = fused_softmax_;
    return m;
}

// --- EfficientAttention --------------------------------------------------------

EfficientAttention::EfficientAttention(int64_t head_dim, double dropout_p,
                                       bool causal)
    : CoreAttention("EfficientAttention", head_dim, dropout_p, causal)
{
}

ModulePtr
EfficientAttention::fromCore(const CoreAttention& core)
{
    auto m = std::make_shared<EfficientAttention>(
        core.headDim(), core.dropoutP(), core.causal());
    m->setDropoutSeed(core.dropoutSeed()); // bit-identical replacement
    if (core.hasRelativeBias()) {
        const Tensor& table = core.paramTensor("rel_bias");
        m->registerParam("rel_bias", table.clone());
        auto it = core.meta().sharded_params.find("rel_bias");
        if (it != core.meta().sharded_params.end()) {
            m->meta().sharded_params["rel_bias"] = it->second;
        }
        // xFormers' mem_eff_attention takes the bias as attn_bias; the
        // launch stays monolithic but recompute is no longer free.
    }
    return m;
}

std::vector<Value>
EfficientAttention::forward(const std::vector<Value>& inputs)
{
    SLAPO_CHECK(inputs.size() == 1 || inputs.size() == 3,
                typeName() << ": expects qkv or (q, k, v), got "
                           << inputs.size() << " inputs");
    std::vector<Value> operands = inputs;
    if (hasRelativeBias()) {
        operands.push_back(param("rel_bias"));
    }
    return {F::attention(operands, headDim(), causal(), dropoutP(),
                         static_cast<int64_t>(dropoutSeed()))};
}

ModulePtr
EfficientAttention::clone() const
{
    auto m = std::make_shared<EfficientAttention>(headDim(), dropoutP(),
                                                  causal());
    cloneInto(m.get());
    m->setDropoutSeed(dropoutSeed());
    return m;
}

// --- SelfAttention ---------------------------------------------------------------

SelfAttention::SelfAttention(int64_t hidden, int64_t num_heads,
                             double dropout_p, bool causal,
                             int64_t relative_buckets)
    : Module("SelfAttention"),
      hidden_(hidden),
      num_heads_(num_heads),
      dropout_p_(dropout_p),
      causal_(causal)
{
    SLAPO_CHECK(hidden % num_heads == 0,
                "SelfAttention: hidden not divisible by heads");
    registerChild("query", std::make_shared<Linear>(hidden, hidden));
    registerChild("key", std::make_shared<Linear>(hidden, hidden));
    registerChild("value", std::make_shared<Linear>(hidden, hidden));
    auto core =
        std::make_shared<CoreAttention>(hidden / num_heads, dropout_p, causal);
    if (relative_buckets > 0) {
        core->enableRelativeBias(num_heads, relative_buckets);
    }
    registerChild("core", core);
}

std::vector<Value>
SelfAttention::forward(const std::vector<Value>& inputs)
{
    const Value& x = inputs[0];
    Value q = callChildOne("query", {x});
    Value k = callChildOne("key", {x});
    Value v = callChildOne("value", {x});
    return {callChildOne("core", {q, k, v})};
}

ModulePtr
SelfAttention::clone() const
{
    auto m = std::make_shared<SelfAttention>(hidden_, num_heads_, dropout_p_,
                                             causal_);
    cloneInto(m.get());
    return m;
}

// --- FusedSelfAttention -----------------------------------------------------------

FusedSelfAttention::FusedSelfAttention(int64_t hidden, int64_t num_heads,
                                       double dropout_p, bool causal)
    : Module("FusedSelfAttention"),
      hidden_(hidden),
      num_heads_(num_heads),
      dropout_p_(dropout_p),
      causal_(causal)
{
    registerChild("qkv", std::make_shared<Linear>(hidden, 3 * hidden));
    registerChild("core", std::make_shared<CoreAttention>(
                              hidden / num_heads, dropout_p, causal));
}

ModulePtr
FusedSelfAttention::fromSelfAttention(SelfAttention& attn)
{
    auto q = std::static_pointer_cast<Linear>(attn.child("query"));
    auto k = std::static_pointer_cast<Linear>(attn.child("key"));
    auto v = std::static_pointer_cast<Linear>(attn.child("value"));
    auto core = std::static_pointer_cast<CoreAttention>(attn.child("core"));

    auto fused = std::make_shared<FusedSelfAttention>(
        attn.hidden(), attn.numHeads(), core->dropoutP(), core->causal());
    auto fused_core = std::static_pointer_cast<CoreAttention>(
        fused->child("core"));
    fused_core->setDropoutSeed(core->dropoutSeed());
    if (core->hasRelativeBias()) {
        fused_core->registerParam("rel_bias",
                                  core->paramTensor("rel_bias").clone());
    }

    auto fused_qkv = fused->child("qkv");
    auto concat_params = [&](const std::string& name) {
        const Tensor& tq = q->paramTensor(name);
        if (tq.isMeta()) {
            return; // meta stays meta (shape was set by the constructor)
        }
        fused_qkv->setParamTensor(
            name, ops::concat({tq, k->paramTensor(name), v->paramTensor(name)},
                              0));
    };
    concat_params("weight");
    concat_params("bias");
    return fused;
}

std::vector<Value>
FusedSelfAttention::forward(const std::vector<Value>& inputs)
{
    const Value& x = inputs[0];
    // The core takes the [B, S, 3 * H_local] output whole: the efficient
    // kernel reads q, k and v in place, the decomposed one splits it.
    Value qkv = callChildOne("qkv", {x});
    return {callChildOne("core", {qkv})};
}

ModulePtr
FusedSelfAttention::clone() const
{
    auto m = std::make_shared<FusedSelfAttention>(hidden_, num_heads_,
                                                  dropout_p_, causal_);
    cloneInto(m.get());
    return m;
}

// --- Projection ---------------------------------------------------------------

Projection::Projection(int64_t hidden, double dropout_p, bool pre_norm)
    : Module("Projection"),
      hidden_(hidden),
      dropout_p_(dropout_p),
      pre_norm_(pre_norm)
{
    registerChild("dense", std::make_shared<Linear>(hidden, hidden));
    registerChild("dropout", std::make_shared<Dropout>(dropout_p));
    if (!pre_norm) {
        registerChild("norm", std::make_shared<LayerNorm>(hidden));
    }
}

std::vector<Value>
Projection::forward(const std::vector<Value>& inputs)
{
    SLAPO_CHECK(inputs.size() == 2,
                "Projection: expects (context, residual), got "
                    << inputs.size() << " inputs");
    const Value& context = inputs[0];
    const Value& residual = inputs[1];
    Value y = callChildOne("dense", {context});
    y = callChildOne("dropout", {y});
    y = F::add(y, residual);
    if (!pre_norm_) {
        y = callChildOne("norm", {y});
    }
    return {y};
}

ModulePtr
Projection::clone() const
{
    auto m = std::make_shared<Projection>(hidden_, dropout_p_, pre_norm_);
    cloneInto(m.get());
    return m;
}

// --- FFN ---------------------------------------------------------------

FFN::FFN(int64_t hidden, int64_t intermediate, double dropout_p, bool pre_norm)
    : Module("FFN"),
      hidden_(hidden),
      intermediate_(intermediate),
      dropout_p_(dropout_p),
      pre_norm_(pre_norm)
{
    registerChild("fc1", std::make_shared<Linear>(hidden, intermediate));
    registerChild("act", std::make_shared<Activation>(Activation::Kind::Gelu));
    registerChild("fc2", std::make_shared<Linear>(intermediate, hidden));
    registerChild("dropout", std::make_shared<Dropout>(dropout_p));
    if (!pre_norm) {
        registerChild("norm", std::make_shared<LayerNorm>(hidden));
    }
}

std::vector<Value>
FFN::forward(const std::vector<Value>& inputs)
{
    const Value& x = inputs[0];
    // Pre-norm blocks pass (normed_x, residual); post-norm pass (x).
    const Value& residual = inputs.size() > 1 ? inputs[1] : inputs[0];
    Value y = callChildOne("fc1", {x});
    y = callChildOne("act", {y});
    y = callChildOne("fc2", {y});
    y = callChildOne("dropout", {y});
    y = F::add(y, residual);
    if (!pre_norm_) {
        y = callChildOne("norm", {y});
    }
    return {y};
}

ModulePtr
FFN::clone() const
{
    auto m = std::make_shared<FFN>(hidden_, intermediate_, dropout_p_,
                                   pre_norm_);
    cloneInto(m.get());
    return m;
}

// --- FusedBiasGelu ---------------------------------------------------------------

FusedBiasGelu::FusedBiasGelu(Tensor bias) : Module("FusedBiasGelu")
{
    registerParam("bias", std::move(bias));
}

std::vector<Value>
FusedBiasGelu::forward(const std::vector<Value>& inputs)
{
    return {F::gelu(F::add(inputs[0], param("bias")))};
}

ModulePtr
FusedBiasGelu::clone() const
{
    auto m = std::make_shared<FusedBiasGelu>(paramTensor("bias").clone());
    cloneInto(m.get());
    return m;
}

// --- VocabParallelLinear ----------------------------------------------------

VocabParallelLinear::VocabParallelLinear(int64_t in_features, int64_t vocab,
                                         bool bias, int world_size)
    : Module("VocabParallelLinear"),
      in_features_(in_features),
      vocab_(vocab),
      padded_vocab_((vocab + world_size - 1) / world_size * world_size),
      has_bias_(bias),
      world_size_(world_size)
{
    registerParam("weight", Tensor::meta({padded_vocab_, in_features}));
    if (bias) {
        registerParam("bias", Tensor::meta({padded_vocab_}));
    }
    ShardSpec spec;
    spec.axis = 0;
    spec.world_size = world_size;
    meta().sharded_params["weight"] = spec;
    if (bias) {
        meta().sharded_params["bias"] = spec;
    }
    // Megatron's "f": each rank back-propagates only its vocab slice of
    // the logits, so the replicated input's gradient is a partial sum.
    SyncSpec input_grad;
    input_grad.direction = SyncDirection::Backward;
    meta().syncs.push_back(input_grad);
}

ModulePtr
VocabParallelLinear::fromLinear(Linear& linear, int world_size)
{
    auto head = std::make_shared<VocabParallelLinear>(
        linear.inFeatures(), linear.outFeatures(), linear.hasBias(),
        world_size);
    auto pad_copy = [&](const std::string& name, int64_t padded_rows) {
        const Tensor& src = linear.paramTensor(name);
        if (src.isMeta()) {
            return; // constructor already set the padded meta shape
        }
        Shape shape = src.shape();
        shape[0] = padded_rows;
        Tensor padded = Tensor::zeros(shape);
        std::copy(src.data(), src.data() + src.numel(), padded.data());
        head->setParamTensor(name, padded);
    };
    pad_copy("weight", head->paddedVocab());
    if (linear.hasBias()) {
        pad_copy("bias", head->paddedVocab());
    }
    return head;
}

std::vector<Value>
VocabParallelLinear::forward(const std::vector<Value>& inputs)
{
    Value logits = F::linear(inputs[0], param("weight"),
                             has_bias_ ? param("bias") : Value());
    DistContext* dc = DistContext::current();
    if (dc != nullptr && dc->world_size > 1) {
        logits = F::allGather(logits, -1);
    }
    if (logits.shape().back() != vocab_) {
        logits = F::narrow(logits, -1, 0, vocab_);
    }
    return {logits};
}

ModulePtr
VocabParallelLinear::clone() const
{
    auto m = std::make_shared<VocabParallelLinear>(in_features_, vocab_,
                                                   has_bias_, world_size_);
    cloneInto(m.get());
    return m;
}

// --- Conv2d ---------------------------------------------------------------

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t pad)
    : Module("Conv2d"),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad)
{
    registerParam("weight",
                  Tensor::meta({out_channels, in_channels, kernel, kernel}));
}

std::vector<Value>
Conv2d::forward(const std::vector<Value>& inputs)
{
    return {F::conv2d(inputs[0], param("weight"), stride_, pad_)};
}

ModulePtr
Conv2d::clone() const
{
    auto m = std::make_shared<Conv2d>(in_channels_, out_channels_, kernel_,
                                      stride_, pad_);
    cloneInto(m.get());
    return m;
}

// --- BatchNorm2d ---------------------------------------------------------------

BatchNorm2d::BatchNorm2d(int64_t channels, double eps)
    : Module("BatchNorm2d"), channels_(channels), eps_(eps)
{
    registerParam("gamma", Tensor::meta({channels}));
    registerParam("beta", Tensor::meta({channels}));
}

std::vector<Value>
BatchNorm2d::forward(const std::vector<Value>& inputs)
{
    return {F::batchNorm2d(inputs[0], param("gamma"), param("beta"), eps_)};
}

ModulePtr
BatchNorm2d::clone() const
{
    auto m = std::make_shared<BatchNorm2d>(channels_, eps_);
    cloneInto(m.get());
    return m;
}

} // namespace nn
} // namespace slapo
