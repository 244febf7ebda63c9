/**
 * @file
 * Tests for the zero-pruning comparator (offline magnitude pruning).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "runtime/pruning.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;
using namespace mflstm::runtime;

tensor::Matrix
randomMatrix(std::size_t n, std::uint64_t seed)
{
    tensor::Rng rng(seed);
    tensor::Matrix m(n, n);
    rng.fillNormal(m, 0.0f, 1.0f);
    return m;
}

TEST(Pruning, ZeroFractionPrunesNothing)
{
    tensor::Matrix m = randomMatrix(16, 2);
    const tensor::Matrix before = m;
    EXPECT_DOUBLE_EQ(pruneBelow(m, 0.0), 0.0);
    EXPECT_EQ(m, before);
}

TEST(Pruning, PrunesSmallestMagnitudesFirst)
{
    tensor::Matrix m(2, 2);
    m(0, 0) = 0.01f;
    m(0, 1) = -0.02f;
    m(1, 0) = 1.0f;
    m(1, 1) = -2.0f;

    EXPECT_DOUBLE_EQ(pruneBelow(m, 0.5), 0.5);
    EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(m(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(m(1, 0), 1.0f);
    EXPECT_FLOAT_EQ(m(1, 1), -2.0f);
}

TEST(Pruning, ApplyZeroPruningOnModel)
{
    nn::ModelConfig cfg;
    cfg.task = nn::TaskKind::Classification;
    cfg.vocab = 16;
    cfg.embedSize = 8;
    cfg.hiddenSize = 24;
    cfg.numLayers = 2;
    cfg.numClasses = 2;
    nn::LstmModel model(cfg, 9);

    const PruningResult res = applyZeroPruning(model, 0.37);
    EXPECT_NEAR(res.prunedFraction, 0.37, 0.03);
    EXPECT_NEAR(res.compressionRatio, res.prunedFraction, 1e-12);
    EXPECT_GT(res.threshold, 0.0);

    // Verify the weights were actually zeroed at the claimed rate and
    // the input matrices untouched.
    std::size_t zeros = 0, total = 0;
    for (const auto &p : model.layers()) {
        for (const tensor::Matrix *u : {&p.uf, &p.ui, &p.uc, &p.uo}) {
            total += u->size();
            for (std::size_t i = 0; i < u->size(); ++i)
                zeros += u->data()[i] == 0.0f;
        }
        for (std::size_t i = 0; i < p.wf.size(); ++i)
            EXPECT_NE(p.wf.data()[i], 0.0f);
    }
    EXPECT_NEAR(static_cast<double>(zeros) / total, 0.37, 0.03);
}

nn::LstmModel
smallModel(std::uint64_t seed)
{
    nn::ModelConfig cfg;
    cfg.task = nn::TaskKind::Classification;
    cfg.vocab = 16;
    cfg.embedSize = 8;
    cfg.hiddenSize = 12;
    cfg.numLayers = 2;
    cfg.numClasses = 2;
    return nn::LstmModel(cfg, seed);
}

TEST(Pruning, ApplyFractionZeroIsIdentity)
{
    nn::LstmModel model = smallModel(3);
    const nn::LstmModel before = model;
    const PruningResult res = applyZeroPruning(model, 0.0);
    EXPECT_DOUBLE_EQ(res.threshold, 0.0);
    EXPECT_DOUBLE_EQ(res.prunedFraction, 0.0);
    EXPECT_DOUBLE_EQ(res.compressionRatio, 0.0);
    // No survivors removed: dense 4 B vs CSR 6 B per element.
    EXPECT_NEAR(res.csrStorageRatio, 4.0 / 6.0, 1e-12);
    for (std::size_t l = 0; l < model.layers().size(); ++l)
        EXPECT_EQ(model.layers()[l].uf, before.layers()[l].uf);
}

TEST(Pruning, ApplyFractionOnePrunesEverySurvivor)
{
    nn::LstmModel model = smallModel(3);
    const PruningResult res = applyZeroPruning(model, 1.0);
    EXPECT_DOUBLE_EQ(res.prunedFraction, 1.0);
    EXPECT_DOUBLE_EQ(res.compressionRatio, 1.0);
    // Zero survivors: the guarded degenerate answer, not a division
    // by zero.
    EXPECT_DOUBLE_EQ(res.csrStorageRatio, 0.0);
    for (const nn::LstmLayerParams &p : model.layers()) {
        for (const tensor::Matrix *u : {&p.uf, &p.ui, &p.uc, &p.uo})
            for (std::size_t i = 0; i < u->size(); ++i)
                EXPECT_EQ(u->data()[i], 0.0f);
    }
}

TEST(Pruning, ApplyRejectsBadFraction)
{
    nn::LstmModel model = smallModel(3);
    EXPECT_THROW(applyZeroPruning(model, -0.01), std::invalid_argument);
    EXPECT_THROW(applyZeroPruning(model, 1.01), std::invalid_argument);
}

TEST(Pruning, AllZeroMatrixIsAFixedPoint)
{
    // An already-zero weight set has nothing below any data-derived
    // threshold (strict comparison), so nothing is "pruned" and the
    // stats stay finite.
    nn::LstmModel model = smallModel(3);
    for (nn::LstmLayerParams &p : model.layers()) {
        for (tensor::Matrix *u : {&p.uf, &p.ui, &p.uc, &p.uo})
            for (std::size_t i = 0; i < u->size(); ++i)
                u->data()[i] = 0.0f;
    }
    const PruningResult res = applyZeroPruning(model, 0.37);
    EXPECT_DOUBLE_EQ(res.threshold, 0.0);
    EXPECT_DOUBLE_EQ(res.prunedFraction, 0.0);
    EXPECT_TRUE(std::isfinite(res.csrStorageRatio));

    // But fraction 1.0 still sweeps the zeros out as "pruned".
    const PruningResult all = applyZeroPruning(model, 1.0);
    EXPECT_DOUBLE_EQ(all.prunedFraction, 1.0);
    EXPECT_DOUBLE_EQ(all.csrStorageRatio, 0.0);
}

TEST(Pruning, CsrStorageRatioReflectsSurvivors)
{
    nn::LstmModel model = smallModel(7);
    const PruningResult res = applyZeroPruning(model, 0.37);
    // dense bytes / (survivors * 1.5 * 4 B): survivors = (1 - f) * total.
    EXPECT_NEAR(res.csrStorageRatio,
                1.0 / (1.5 * (1.0 - res.prunedFraction)), 1e-9);
    EXPECT_GT(res.csrStorageRatio, 1.0);  // 37% pruning beats CSR overhead
}

TEST(Pruning, ModelOutputsChangeButRemainFinite)
{
    nn::ModelConfig cfg;
    cfg.task = nn::TaskKind::Classification;
    cfg.vocab = 16;
    cfg.embedSize = 8;
    cfg.hiddenSize = 24;
    cfg.numLayers = 1;
    cfg.numClasses = 2;
    nn::LstmModel model(cfg, 11);

    const std::int32_t toks[] = {1, 2, 3, 4, 5};
    const auto before = model.classify(toks);
    applyZeroPruning(model, 0.5);
    const auto after = model.classify(toks);

    EXPECT_NE(before, after);
    for (std::size_t i = 0; i < after.size(); ++i)
        EXPECT_TRUE(std::isfinite(after[i]));
}

} // namespace
