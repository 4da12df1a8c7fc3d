/** @file Tests of the model zoo: Table 2 parameter counts, forward
 * shapes at tiny scale, and architecture-specific properties. */
#include <gtest/gtest.h>

#include "models/dataset.h"
#include "models/registry.h"

namespace slapo {
namespace models {
namespace {

std::vector<Tensor>
runModel(nn::Module& m, const std::vector<Tensor>& inputs)
{
    std::vector<nn::Value> values;
    for (const Tensor& t : inputs) values.emplace_back(t);
    std::vector<Tensor> out;
    for (nn::Value& v : m.call(values)) out.push_back(v.tensor());
    return out;
}

/** Parameter counts should be within tolerance of Table 2. Our LM heads
 * are untied (each adds vocab x hidden), so decoder models get a wider
 * band; see DESIGN.md. */
struct ParamCase
{
    const char* name;
    int variant;
    double tolerance;
};

/** gtest_discover_tests names each ctest after this printout. Without it
 * gtest would print the struct's raw bytes, and with them the address of
 * `name`, which moves on every run. */
void
PrintTo(const ParamCase& c, std::ostream* os)
{
    *os << c.name << "_v" << c.variant;
}

class Table2Params : public ::testing::TestWithParam<ParamCase>
{
};

TEST_P(Table2Params, MatchesPaperWithinTolerance)
{
    const ParamCase& c = GetParam();
    auto model = buildModel(c.name, c.variant);
    const double actual_m =
        static_cast<double>(model->numParams()) / 1e6;
    const double paper_m = modelInfo(c.name).paper_params_m[c.variant];
    EXPECT_NEAR(actual_m / paper_m, 1.0, c.tolerance)
        << c.name << " variant " << c.variant << ": " << actual_m
        << "M vs paper " << paper_m << "M";
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, Table2Params,
    ::testing::Values(ParamCase{"bert", 0, 0.15}, ParamCase{"roberta", 0, 0.15},
                      ParamCase{"albert", 0, 0.15}, ParamCase{"gpt", 0, 0.35},
                      ParamCase{"gpt", 1, 0.15}, ParamCase{"opt", 0, 0.20},
                      ParamCase{"t5", 0, 0.30}, ParamCase{"t5", 1, 0.30},
                      ParamCase{"wideresnet", 0, 0.15}));

TEST(Models, Gpt10BIsTenBillion)
{
    auto model = buildGpt10B();
    const double params_b = static_cast<double>(model->numParams()) / 1e9;
    EXPECT_NEAR(params_b, 10.0, 1.5);
}

TEST(Models, PaperScaleModelsAreMeta)
{
    auto model = buildModel("bert", 0);
    for (auto& [path, t] : model->namedParams()) {
        EXPECT_TRUE(t->isMeta()) << path;
    }
}

class TinyForward : public ::testing::TestWithParam<const char*>
{
};

TEST_P(TinyForward, ProducesLogits)
{
    const std::string name = GetParam();
    auto model = buildTinyModel(name);
    model->initializeParams(7);
    std::vector<Tensor> inputs;
    if (name == "t5") {
        inputs = {Tensor::randint({2, 8}, 64, 1),
                  Tensor::randint({2, 8}, 64, 2)};
    } else if (name == "wideresnet") {
        inputs = {Tensor::uniform({2, 3, 16, 16}, 1.0f, 3)};
    } else {
        inputs = {Tensor::randint({2, 8}, 64, 1)};
    }
    auto out = runModel(*model, inputs);
    ASSERT_EQ(out.size(), 1u);
    if (name == "wideresnet") {
        EXPECT_EQ(out[0].shape(), (Shape{2, 10}));
    } else {
        EXPECT_EQ(out[0].shape().size(), 3u);
        EXPECT_EQ(out[0].shape()[0], 2);
        EXPECT_EQ(out[0].shape()[1], 8);
        EXPECT_EQ(out[0].shape()[2], 64); // vocab logits
    }
    // Deterministic: same inputs, same outputs.
    auto out2 = runModel(*model, inputs);
    EXPECT_TRUE(Tensor::allClose(out[0], out2[0]));
}

INSTANTIATE_TEST_SUITE_P(AllModels, TinyForward,
                         ::testing::Values("bert", "roberta", "albert", "gpt",
                                           "opt", "t5", "wideresnet"));

TEST(Models, GptTopIsUntraceableOptIsNot)
{
    EXPECT_FALSE(buildModel("gpt", 0)->traceable());
    EXPECT_TRUE(buildModel("opt", 0)->traceable());
    EXPECT_TRUE(buildModel("bert", 0)->traceable());
}

TEST(Models, MegatronSupportFlagsMatchPaper)
{
    EXPECT_TRUE(modelInfo("bert").megatron_supported);
    EXPECT_TRUE(modelInfo("gpt").megatron_supported);
    EXPECT_TRUE(modelInfo("t5").megatron_supported);
    EXPECT_FALSE(modelInfo("roberta").megatron_supported);
    EXPECT_FALSE(modelInfo("albert").megatron_supported);
    EXPECT_FALSE(modelInfo("opt").megatron_supported);
    EXPECT_FALSE(modelInfo("wideresnet").megatron_supported);
}

TEST(Models, AlbertSharesOneLayer)
{
    auto model = buildTinyModel("albert");
    // A single shared TransformerLayer regardless of the logical depth.
    int layer_modules = 0;
    for (auto& [path, m] : model->namedModules()) {
        if (m->typeName() == "TransformerLayer") {
            ++layer_modules;
        }
    }
    EXPECT_EQ(layer_modules, 1);
    // Scheduling the shared layer schedules every application: params of
    // ALBERT are far fewer than an unshared model of the same depth.
    auto bert = buildTinyModel("bert");
    // Tiny ALBERT has 2 logical layers but only one layer's params.
    EXPECT_LT(model->findByPath("shared_layer")->numParams() * 2,
              2 * bert->findByPath("encoder")->numParams() + 1);
}

TEST(Models, CausalModelsIgnoreFutureTokens)
{
    auto model = buildTinyModel("opt");
    model->initializeParams(11);
    Tensor ids1 = Tensor::randint({1, 8}, 64, 13);
    Tensor ids2 = ids1.clone();
    ids2.set(7, static_cast<float>(static_cast<int64_t>(ids2.at(7) + 1) % 64));
    auto o1 = runModel(*model, {ids1});
    auto o2 = runModel(*model, {ids2});
    // Logits at position 0 are unaffected by a change at position 7.
    for (int64_t v = 0; v < 64; ++v) {
        EXPECT_NEAR(o1[0].at(v), o2[0].at(v), 1e-4f);
    }
}

TEST(Models, BidirectionalModelsSeeAllTokens)
{
    auto model = buildTinyModel("bert");
    model->initializeParams(17);
    Tensor ids1 = Tensor::randint({1, 8}, 64, 19);
    Tensor ids2 = ids1.clone();
    ids2.set(7, static_cast<float>(static_cast<int64_t>(ids2.at(7) + 1) % 64));
    auto o1 = runModel(*model, {ids1});
    auto o2 = runModel(*model, {ids2});
    EXPECT_GT(Tensor::maxAbsDiff(o1[0], o2[0]), 1e-6f);
}

TEST(Models, T5UsesRelativeAttentionBias)
{
    auto t5 = buildTinyModel("t5");
    int biased = 0;
    for (auto& [path, m] : t5->namedModules()) {
        if (m->hasParam("rel_bias")) {
            ++biased;
            // Self-attention cores only; cross-attention has none.
            EXPECT_EQ(path.find("cross"), std::string::npos) << path;
        }
    }
    // Encoder layers + decoder self-attention layers.
    EXPECT_GE(biased, 4);
    // BERT/GPT have no relative bias. (The model must outlive the loop:
    // namedModules() returns raw pointers into it.)
    auto bert = buildTinyModel("bert");
    for (auto& [path, m] : bert->namedModules()) {
        EXPECT_FALSE(m->hasParam("rel_bias")) << path;
    }
}

TEST(Models, RelativeBiasChangesTheFunction)
{
    // Same seed, with vs without the bias: outputs must differ (the
    // overhead Megatron's fixed embeddings avoid is real computation).
    TransformerConfig with_bias = tinyConfig("t5");
    auto model = std::make_shared<T5Model>(with_bias);
    model->initializeParams(401);
    // Give the tables a non-trivial value (uniform init already does).
    Tensor src = Tensor::randint({1, 8}, 64, 403);
    Tensor tgt = Tensor::randint({1, 8}, 64, 405);
    auto before = runModel(*model, {src, tgt});
    for (auto& [path, m] : model->namedModules()) {
        if (m->typeName() == "CoreAttention") {
            static_cast<nn::CoreAttention*>(m)->disableRelativeBias();
        }
    }
    auto after = runModel(*model, {src, tgt});
    EXPECT_GT(Tensor::maxAbsDiff(before[0], after[0]), 1e-6f);
}

TEST(Models, T5DecoderAttendsToEncoder)
{
    auto model = buildTinyModel("t5");
    model->initializeParams(23);
    Tensor src1 = Tensor::randint({1, 8}, 64, 29);
    Tensor src2 = Tensor::randint({1, 8}, 64, 31);
    Tensor tgt = Tensor::randint({1, 8}, 64, 37);
    auto o1 = runModel(*model, {src1, tgt});
    auto o2 = runModel(*model, {src2, tgt});
    EXPECT_GT(Tensor::maxAbsDiff(o1[0], o2[0]), 1e-6f);
}

TEST(Models, Table2SeqLengthsMatchPaper)
{
    EXPECT_EQ(modelConfig("bert", 0).seq_len, 512);
    EXPECT_EQ(modelConfig("gpt", 0).seq_len, 1024);
    EXPECT_EQ(modelConfig("opt", 0).seq_len, 1024);
    EXPECT_EQ(modelConfig("t5", 0).seq_len, 1024);
    EXPECT_EQ(modelConfig("t5", 0).decoder_seq_len, 512);
    EXPECT_EQ(modelInfo("wideresnet").seq_len, 224);
    EXPECT_EQ(modelInfo("wideresnet").precision, "FP32");
}

TEST(Models, WideResNetDownsamples)
{
    WideResNetConfig config;
    config.depth = 10;
    config.width = 1;
    config.num_classes = 5;
    WideResNet model(config);
    model.initializeParams(41);
    auto out = runModel(model, {Tensor::uniform({1, 3, 32, 32}, 1.0f, 43)});
    EXPECT_EQ(out[0].shape(), (Shape{1, 5}));
}

// --- synthetic workloads -------------------------------------------------------

TEST(Dataset, TaskNamesMatchTable2)
{
    EXPECT_EQ(taskOf("bert"), "MLM");
    EXPECT_EQ(taskOf("gpt"), "CLM");
    EXPECT_EQ(taskOf("t5"), "Seq2Seq");
    EXPECT_EQ(taskOf("wideresnet"), "IC");
}

TEST(Dataset, MlmMasksAndKeepsLabels)
{
    SyntheticDataset data("MLM", 64, 32, 7);
    Batch batch = data.batch(4, 0);
    ASSERT_EQ(batch.inputs.size(), 1u);
    EXPECT_EQ(batch.inputs[0].shape(), (Shape{4, 32}));
    EXPECT_EQ(batch.targets.shape(), (Shape{4, 32}));
    int masked = 0;
    for (int64_t i = 0; i < batch.inputs[0].numel(); ++i) {
        const float in = batch.inputs[0].at(i);
        const float label = batch.targets.at(i);
        EXPECT_GE(label, 0);
        EXPECT_LT(label, 64);
        if (in == static_cast<float>(data.maskToken())) {
            ++masked;
        } else {
            EXPECT_FLOAT_EQ(in, label); // unmasked positions unchanged
        }
    }
    EXPECT_GT(masked, 0);
    EXPECT_LT(masked, batch.inputs[0].numel() / 2);
}

TEST(Dataset, ClmLabelsAreShiftedInputs)
{
    SyntheticDataset data("CLM", 64, 16, 11);
    Batch batch = data.batch(2, 3);
    const Tensor& ids = batch.inputs[0];
    // labels[t] == ids[t + 1] within the common window.
    for (int64_t b = 0; b < 2; ++b) {
        for (int64_t s = 0; s + 1 < 16; ++s) {
            EXPECT_FLOAT_EQ(batch.targets.at(b * 16 + s),
                            ids.at(b * 16 + s + 1));
        }
    }
}

TEST(Dataset, Seq2SeqHasTwoStreams)
{
    SyntheticDataset data("Seq2Seq", 64, 8, 13);
    Batch batch = data.batch(3, 0);
    ASSERT_EQ(batch.inputs.size(), 2u);
    EXPECT_EQ(batch.inputs[0].shape(), (Shape{3, 8}));
    EXPECT_EQ(batch.inputs[1].shape(), (Shape{3, 8}));
    EXPECT_EQ(batch.targets.shape(), (Shape{3, 8}));
}

TEST(Dataset, DeterministicRandomAccess)
{
    SyntheticDataset a("MLM", 64, 16, 5);
    SyntheticDataset b("MLM", 64, 16, 5);
    Batch ba = a.batch(2, 9);
    Batch bb = b.batch(2, 9);
    EXPECT_TRUE(Tensor::allClose(ba.inputs[0], bb.inputs[0]));
    EXPECT_TRUE(Tensor::allClose(ba.targets, bb.targets));
    Batch different = a.batch(2, 10);
    EXPECT_FALSE(Tensor::allClose(ba.inputs[0], different.inputs[0]));
}

TEST(Dataset, ZipfFavorsSmallIds)
{
    SyntheticDataset data("CLM", 1000, 64, 17);
    Batch batch = data.batch(8, 0);
    int64_t small = 0;
    const Tensor& ids = batch.inputs[0];
    for (int64_t i = 0; i < ids.numel(); ++i) {
        if (ids.at(i) < 100) ++small; // top decile of ranks
    }
    // Zipf mass concentrates far above the uniform 10%.
    EXPECT_GT(small, ids.numel() / 2);
}

TEST(Dataset, ImageBatchesForIC)
{
    SyntheticDataset data("IC", 10, 16, 19);
    Batch batch = data.batch(2, 0);
    EXPECT_EQ(batch.inputs[0].shape(), (Shape{2, 3, 16, 16}));
    EXPECT_EQ(batch.targets.shape(), (Shape{2}));
    for (int64_t b = 0; b < 2; ++b) {
        EXPECT_LT(batch.targets.at(b), 10);
    }
}

TEST(Models, EmbeddingVocabPadding)
{
    nn::Embedding emb(30522, 8);
    emb.padVocabTo(30528);
    EXPECT_EQ(emb.vocabSize(), 30528);
    EXPECT_EQ(emb.paramTensor("weight").shape()[0], 30528);
    // Materialized padding keeps existing rows.
    nn::Embedding small(4, 2);
    small.setParamTensor("weight",
                         Tensor::fromValues({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8}));
    small.padVocabTo(6);
    EXPECT_EQ(small.paramTensor("weight").shape()[0], 6);
    EXPECT_FLOAT_EQ(small.paramTensor("weight").at(7), 8);
    EXPECT_FLOAT_EQ(small.paramTensor("weight").at(10), 0);
}

} // namespace
} // namespace models
} // namespace slapo
