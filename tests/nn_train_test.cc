/**
 * @file
 * Tests for the BPTT trainer: a finite-difference check of the
 * hand-derived gradients, and end-to-end convergence on tiny synthetic
 * tasks (the role PyTorch training plays in the paper's methodology).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "nn/model.hh"
#include "nn/train.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;
using namespace mflstm::nn;

ModelConfig
tinyClassifier(std::size_t layers = 1)
{
    ModelConfig cfg;
    cfg.task = TaskKind::Classification;
    cfg.vocab = 8;
    cfg.embedSize = 4;
    cfg.hiddenSize = 5;
    cfg.numLayers = layers;
    cfg.numClasses = 2;
    return cfg;
}

/** Forward-only loss used as the finite-difference reference. */
double
lossOf(const LstmModel &m, const Sample &s)
{
    tensor::Vector logits = m.classify(s.tokens);
    softmaxInplace(logits.span());
    return crossEntropy(logits.span(),
                        static_cast<std::size_t>(s.label));
}

TEST(Bptt, FiniteDifferenceGradientCheck)
{
    LstmModel model(tinyClassifier(2), 17);
    Trainer trainer(model, {});

    const Sample sample{{1, 3, 5, 2}, 1};
    trainer.computeGradients(sample.tokens, sample.label, false);

    // Spot-check a spread of parameters against central differences.
    struct Probe
    {
        float *param;
        float analytic;
    };
    auto &g = trainer.grads();
    auto &l0 = model.layers()[0];
    auto &l1 = model.layers()[1];
    std::vector<Probe> probes = {
        {&l0.uf(1, 2), g.layers[0].uf(1, 2)},
        {&l0.wi(0, 1), g.layers[0].wi(0, 1)},
        {&l0.bc[3], g.layers[0].bc[3]},
        {&l1.uo(2, 4), g.layers[1].uo(2, 4)},
        {&l1.wc(4, 0), g.layers[1].wc(4, 0)},
        {&model.head().w(1, 2), g.headW(1, 2)},
        {&model.head().b[0], g.headB[0]},
        {&model.embedding().table(3, 1), g.embedding(3, 1)},
    };

    const float eps = 1e-3f;
    for (const Probe &p : probes) {
        const float orig = *p.param;
        *p.param = orig + eps;
        const double up = lossOf(model, sample);
        *p.param = orig - eps;
        const double down = lossOf(model, sample);
        *p.param = orig;

        const double numeric = (up - down) / (2.0 * eps);
        EXPECT_NEAR(p.analytic, numeric,
                    5e-3 + 0.05 * std::fabs(numeric))
            << "param grad mismatch";
    }
}

TEST(Bptt, FiniteDifferenceGradientCheckLm)
{
    ModelConfig cfg;
    cfg.task = TaskKind::LanguageModel;
    cfg.vocab = 6;
    cfg.embedSize = 4;
    cfg.hiddenSize = 4;
    cfg.numLayers = 1;
    LstmModel model(cfg, 23);
    Trainer trainer(model, {});

    const std::vector<std::int32_t> seq = {1, 2, 3, 4, 5};
    trainer.computeGradients(seq, 0, true);

    auto loss_of = [&] {
        auto logits = model.lmLogits(std::span(seq.data(), seq.size() - 1));
        double acc = 0.0;
        for (std::size_t t = 0; t < logits.size(); ++t) {
            softmaxInplace(logits[t].span());
            acc += crossEntropy(logits[t].span(),
                                static_cast<std::size_t>(seq[t + 1]));
        }
        return acc;  // computeGradients reports mean but seeds sum
    };

    float *param = &model.layers()[0].uc(1, 1);
    const float analytic = trainer.grads().layers[0].uc(1, 1);
    const float eps = 1e-3f;
    const float orig = *param;
    *param = orig + eps;
    const double up = loss_of();
    *param = orig - eps;
    const double down = loss_of();
    *param = orig;

    EXPECT_NEAR(analytic, (up - down) / (2.0 * eps), 5e-3);
}

TEST(Trainer, LearnsLinearlySeparableTask)
{
    // Class = whether the first token is < 4. A single LSTM layer learns
    // this in a handful of epochs.
    LstmModel model(tinyClassifier(), 99);
    tensor::Rng rng(100);

    std::vector<Sample> data;
    for (int n = 0; n < 80; ++n) {
        Sample s;
        for (int t = 0; t < 6; ++t)
            s.tokens.push_back(
                static_cast<std::int32_t>(rng.integer(0, 7)));
        s.label = s.tokens[0] < 4 ? 0 : 1;
        data.push_back(s);
    }

    TrainConfig tc;
    tc.lr = 5e-3;
    Trainer trainer(model, tc);
    trainer.trainClassification(data, 12);

    EXPECT_GE(classificationAccuracy(model, data), 0.95);
}

TEST(Trainer, LossDecreasesOnRepeatedSample)
{
    LstmModel model(tinyClassifier(), 5);
    TrainConfig tc;
    tc.lr = 1e-2;
    Trainer trainer(model, tc);
    const Sample s{{1, 2, 3}, 0};

    const double first = trainer.stepClassification(s);
    double last = first;
    for (int k = 0; k < 60; ++k)
        last = trainer.stepClassification(s);
    EXPECT_LT(last, first);
    EXPECT_LT(last, 0.1);
}

TEST(Trainer, LmMemorisesShortSequence)
{
    ModelConfig cfg;
    cfg.task = TaskKind::LanguageModel;
    cfg.vocab = 6;
    cfg.embedSize = 6;
    cfg.hiddenSize = 12;
    cfg.numLayers = 1;
    LstmModel model(cfg, 3);

    const std::vector<std::vector<std::int32_t>> corpus = {
        {0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5}};

    TrainConfig tc;
    tc.lr = 1e-2;
    Trainer trainer(model, tc);
    trainer.trainLanguageModel(corpus, 60);

    EXPECT_GE(lmNextTokenAccuracy(model, corpus), 0.99);
}

TEST(Trainer, GradClippingBoundsUpdates)
{
    LstmModel model(tinyClassifier(), 7);
    TrainConfig tc;
    tc.clipNorm = 1e-6;  // clip everything to (numerically) nothing
    Trainer trainer(model, tc);

    const float before = model.layers()[0].uf(0, 0);
    trainer.stepClassification({{1, 2, 3}, 1});
    const float after = model.layers()[0].uf(0, 0);
    // Adam normalises by sqrt(v), so updates are bounded by lr even for
    // clipped gradients; the parameter must move by at most ~lr.
    EXPECT_NEAR(before, after, 2.0f * static_cast<float>(tc.lr));
}

TEST(Trainer, StepCounterAdvances)
{
    LstmModel model(tinyClassifier(), 7);
    Trainer trainer(model, {});
    EXPECT_EQ(trainer.stepsTaken(), 0u);
    trainer.stepClassification({{1}, 0});
    trainer.stepClassification({{2, 3}, 1});
    EXPECT_EQ(trainer.stepsTaken(), 2u);
}

TEST(Trainer, HardSigmoidModelAlsoTrains)
{
    ModelConfig cfg = tinyClassifier();
    cfg.sigmoid = SigmoidKind::Hard;
    LstmModel model(cfg, 31);
    Trainer trainer(model, {});
    const Sample s{{1, 2, 3, 4}, 1};
    const double first = trainer.stepClassification(s);
    double last = first;
    for (int k = 0; k < 40; ++k)
        last = trainer.stepClassification(s);
    EXPECT_LT(last, first);
}

} // namespace
