/**
 * @file
 * Tests for the model heads (embedding, linear, softmax) and the
 * end-to-end LstmModel forward paths.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "nn/model.hh"
#include "tensor/ops.hh"

namespace {

using namespace mflstm;
using namespace mflstm::nn;

ModelConfig
smallClassifier()
{
    ModelConfig cfg;
    cfg.task = TaskKind::Classification;
    cfg.vocab = 12;
    cfg.embedSize = 6;
    cfg.hiddenSize = 8;
    cfg.numLayers = 2;
    cfg.numClasses = 3;
    return cfg;
}

ModelConfig
smallLm()
{
    ModelConfig cfg;
    cfg.task = TaskKind::LanguageModel;
    cfg.vocab = 10;
    cfg.embedSize = 5;
    cfg.hiddenSize = 7;
    cfg.numLayers = 1;
    return cfg;
}

TEST(Softmax, SumsToOneAndOrdersPreserved)
{
    tensor::Vector v{1.0f, 3.0f, 2.0f};
    softmaxInplace(v.span());
    float sum = 0.0f;
    for (std::size_t i = 0; i < 3; ++i)
        sum += v[i];
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
    EXPECT_GT(v[1], v[2]);
    EXPECT_GT(v[2], v[0]);
}

TEST(Softmax, StableForLargeLogits)
{
    tensor::Vector v{1000.0f, 1000.0f};
    softmaxInplace(v.span());
    EXPECT_NEAR(v[0], 0.5f, 1e-6f);
    EXPECT_FALSE(std::isnan(v[1]));
}

TEST(CrossEntropy, PerfectAndWrongPredictions)
{
    tensor::Vector p{0.0f, 1.0f};
    EXPECT_NEAR(crossEntropy(p.span(), 1), 0.0f, 1e-6f);
    // Zero probability is clamped, not infinite.
    EXPECT_LT(crossEntropy(p.span(), 0), 30.0f);
    EXPECT_GT(crossEntropy(p.span(), 0), 20.0f);
}

TEST(Linear, ForwardAffine)
{
    LinearParams p(2, 2);
    p.w(0, 0) = 1.0f;
    p.w(1, 1) = 2.0f;
    p.b[0] = 0.5f;

    const tensor::Vector y = linearForward(p, tensor::Vector{3.0f, 4.0f});
    EXPECT_FLOAT_EQ(y[0], 3.5f);
    EXPECT_FLOAT_EQ(y[1], 8.0f);
}

TEST(LstmModel, ConstructionValidatesConfig)
{
    ModelConfig bad = smallClassifier();
    bad.hiddenSize = 0;
    EXPECT_THROW(LstmModel(bad, 1), std::invalid_argument);

    ModelConfig one_class = smallClassifier();
    one_class.numClasses = 1;
    EXPECT_THROW(LstmModel(one_class, 1), std::invalid_argument);
}

TEST(LstmModel, LayerInputSizesChain)
{
    const LstmModel m(smallClassifier(), 42);
    ASSERT_EQ(m.layers().size(), 2u);
    EXPECT_EQ(m.layers()[0].inputSize(), 6u);   // embed size
    EXPECT_EQ(m.layers()[1].inputSize(), 8u);   // hidden size
    EXPECT_EQ(m.head().outSize(), 3u);
}

TEST(LstmModel, EmbedLooksUpRows)
{
    const LstmModel m(smallClassifier(), 42);
    const std::int32_t toks[] = {0, 5};
    const auto vecs = m.embed(toks);
    ASSERT_EQ(vecs.size(), 2u);
    for (std::size_t j = 0; j < 6; ++j) {
        EXPECT_FLOAT_EQ(vecs[0][j], m.embedding().table(0, j));
        EXPECT_FLOAT_EQ(vecs[1][j], m.embedding().table(5, j));
    }
}

TEST(LstmModel, EmbedRejectsOutOfVocab)
{
    const LstmModel m(smallClassifier(), 42);
    const std::int32_t toks[] = {12};
    EXPECT_THROW(m.embed(toks), std::out_of_range);
}

TEST(LstmModel, ClassifyShapeAndDeterminism)
{
    const LstmModel m(smallClassifier(), 42);
    const std::int32_t toks[] = {1, 2, 3, 4};
    const auto a = m.classify(toks);
    const auto b = m.classify(toks);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a, b);
}

TEST(LstmModel, ClassifyRejectsEmpty)
{
    const LstmModel m(smallClassifier(), 42);
    EXPECT_THROW(m.classify(std::span<const std::int32_t>{}),
                 std::invalid_argument);
}

TEST(LstmModel, LmLogitsPerStep)
{
    const LstmModel m(smallLm(), 7);
    const std::int32_t toks[] = {1, 2, 3};
    const auto logits = m.lmLogits(toks);
    ASSERT_EQ(logits.size(), 3u);
    for (const auto &l : logits)
        EXPECT_EQ(l.size(), 10u);
}

TEST(LstmModel, DifferentSeedsDifferentOutputs)
{
    const LstmModel a(smallClassifier(), 1);
    const LstmModel b(smallClassifier(), 2);
    const std::int32_t toks[] = {1, 2, 3};
    EXPECT_NE(a.classify(toks), b.classify(toks));
}

TEST(LstmModel, RunLayersTracesPerLayer)
{
    const LstmModel m(smallClassifier(), 42);
    const std::int32_t toks[] = {1, 2, 3, 4, 5};
    std::vector<std::vector<LstmCellTrace>> traces;
    const auto top = m.runLayers(m.embed(toks), &traces);
    ASSERT_EQ(traces.size(), 2u);
    EXPECT_EQ(traces[0].size(), 5u);
    EXPECT_EQ(traces[1].size(), 5u);
    EXPECT_EQ(top.size(), 5u);
    // The top layer's trace h must equal the returned outputs.
    EXPECT_EQ(traces[1].back().h, top.back());
}

TEST(Metrics, AccuracyOnTrivialData)
{
    const LstmModel m(smallClassifier(), 42);
    std::vector<Sample> data;
    // Label every sample with whatever the model already predicts: the
    // accuracy helper must then report 1.0.
    for (std::int32_t t = 0; t < 5; ++t) {
        Sample s;
        s.tokens = {t, t, t};
        s.label = static_cast<std::int32_t>(
            tensor::argmax(m.classify(s.tokens).span()));
        data.push_back(s);
    }
    EXPECT_DOUBLE_EQ(classificationAccuracy(m, data), 1.0);
}

TEST(Metrics, LmNextTokenAccuracyInUnitRange)
{
    const LstmModel m(smallLm(), 7);
    std::vector<std::vector<std::int32_t>> seqs = {{1, 2, 3, 4},
                                                   {5, 6, 7}};
    const double acc = lmNextTokenAccuracy(m, seqs);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

} // namespace
