/**
 * @file
 * Tests for model-level post-training quantization: fake-quant
 * semantics (which matrices it rewrites, idempotence, stats and
 * compression).
 */

#include <gtest/gtest.h>

#include "quant/quantize.hh"

namespace {

using namespace mflstm;
using quant::QuantMode;

nn::ModelConfig
someConfig()
{
    nn::ModelConfig cfg;
    cfg.task = nn::TaskKind::Classification;
    cfg.vocab = 20;
    cfg.embedSize = 6;
    cfg.hiddenSize = 8;
    cfg.numLayers = 2;
    cfg.numClasses = 3;
    return cfg;
}

TEST(QuantModel, FakeQuantStatsAndCompression)
{
    const nn::LstmModel original(someConfig(), 9);
    nn::LstmModel m = original;
    const quant::FakeQuantStats st =
        quant::applyFakeQuant(m, QuantMode::Int8);
    EXPECT_EQ(st.mode, QuantMode::Int8);
    EXPECT_EQ(st.matrices, 2u * 8u);  // 8 W/U matrices per layer
    // Biases, embedding and head stay exactly fp32.
    EXPECT_EQ(m.layers()[0].bf, original.layers()[0].bf);
    EXPECT_EQ(m.embedding().table, original.embedding().table);
    EXPECT_EQ(m.head().w, original.head().w);
    EXPECT_GT(st.elements, 0u);
    EXPECT_GT(st.maxAbsError, 0.0);
    EXPECT_GE(st.maxAbsError, st.meanAbsError);
    // 4 bytes -> 1 byte per weight plus the per-row scale stream. The
    // 8-wide test model's rows are short, so the scale stream costs a
    // visible slice of the budget here.
    EXPECT_GT(st.compressionRatio(), 2.0);
    EXPECT_LT(st.compressionRatio(), 4.0);

    // At a realistic width the scale stream amortises: near 4x.
    nn::ModelConfig wide = someConfig();
    wide.embedSize = 48;
    wide.hiddenSize = 64;
    nn::LstmModel w(wide, 9);
    const quant::FakeQuantStats ws =
        quant::applyFakeQuant(w, QuantMode::Int8);
    EXPECT_GT(ws.compressionRatio(), 3.5);
    EXPECT_LT(ws.compressionRatio(), 4.0);
}

TEST(QuantModel, FakeQuantFp32IsNoOp)
{
    const nn::LstmModel original(someConfig(), 2);
    nn::LstmModel m = original;
    const quant::FakeQuantStats st =
        quant::applyFakeQuant(m, QuantMode::Fp32);
    EXPECT_EQ(st.maxAbsError, 0.0);
    EXPECT_EQ(m.layers()[0].uf, original.layers()[0].uf);
}

TEST(QuantModel, FakeQuantIsIdempotent)
{
    nn::LstmModel m(someConfig(), 9);
    quant::applyFakeQuant(m, QuantMode::Int8);
    const nn::LstmModel once = m;
    const quant::FakeQuantStats again =
        quant::applyFakeQuant(m, QuantMode::Int8);
    EXPECT_EQ(again.maxAbsError, 0.0);
    EXPECT_EQ(m.layers()[1].uo, once.layers()[1].uo);
}

TEST(QuantModel, Int4CompressesMoreButErrsMore)
{
    nn::LstmModel a(someConfig(), 9);
    nn::LstmModel b(someConfig(), 9);
    const quant::FakeQuantStats s8 =
        quant::applyFakeQuant(a, QuantMode::Int8);
    const quant::FakeQuantStats s4 =
        quant::applyFakeQuant(b, QuantMode::Int4);
    EXPECT_GT(s4.compressionRatio(), s8.compressionRatio());
    EXPECT_GT(s4.meanAbsError, s8.meanAbsError);
}

} // namespace
