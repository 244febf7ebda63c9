/**
 * @file
 * Tests for the functional approximations: DRS cell semantics (both
 * state policies), the link predictor, and the ApproxRunner — in
 * particular that zero thresholds reproduce the exact model bit-for-bit
 * and that the statistics it reports are consistent.
 */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/approx.hh"
#include "core/predictor.hh"
#include "tensor/activations.hh"
#include "tensor/ops.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;
using namespace mflstm::core;

nn::ModelConfig
smallConfig(std::size_t layers = 2)
{
    nn::ModelConfig cfg;
    cfg.task = nn::TaskKind::Classification;
    cfg.vocab = 16;
    cfg.embedSize = 6;
    cfg.hiddenSize = 10;
    cfg.numLayers = layers;
    cfg.numClasses = 2;
    return cfg;
}

std::vector<std::vector<std::int32_t>>
someSequences(std::size_t n, std::size_t len, std::uint64_t seed)
{
    tensor::Rng rng(seed);
    std::vector<std::vector<std::int32_t>> seqs(n);
    for (auto &s : seqs)
        for (std::size_t t = 0; t < len; ++t)
            s.push_back(static_cast<std::int32_t>(rng.integer(0, 15)));
    return seqs;
}

/**
 * The oracle for the cell step, dense and row-skipping: Eq. 1-5 and
 * Algorithm 3 written
 * with the row-major tensor::gemv, one matrix per gate. alpha_intra < 0
 * runs the exact cell; otherwise rows with o_t <= alpha_intra lose their
 * U_{f,i,c} products, or their whole element under ZeroState.
 */
nn::LstmState
referenceCell(const nn::LstmLayerParams &p, const Vector &x_proj,
              const nn::LstmState &prev, nn::SigmoidKind sk,
              double alpha_intra, nn::DrsStatePolicy policy)
{
    auto sig = [sk](float v) {
        return sk == nn::SigmoidKind::Logistic ? tensor::sigmoid(v)
                                               : tensor::hardSigmoid(v);
    };
    const std::size_t hid = p.hiddenSize();
    Vector rf, ri, rc, ro;
    tensor::gemv(p.uf, prev.h, rf);
    tensor::gemv(p.ui, prev.h, ri);
    tensor::gemv(p.uc, prev.h, rc);
    tensor::gemv(p.uo, prev.h, ro);

    nn::LstmState next(hid);
    for (std::size_t j = 0; j < hid; ++j) {
        const float o = sig(x_proj[3 * hid + j] + ro[j] + p.bo[j]);
        const bool skip = alpha_intra >= 0.0 && o <= alpha_intra;
        if (skip && policy == nn::DrsStatePolicy::ZeroState)
            continue;  // c and h stay 0
        if (skip)
            rf[j] = ri[j] = rc[j] = 0.0f;
        const float f = sig(x_proj[j] + rf[j] + p.bf[j]);
        const float i = sig(x_proj[hid + j] + ri[j] + p.bi[j]);
        const float g = std::tanh(x_proj[2 * hid + j] + rc[j] + p.bc[j]);
        next.c[j] = f * prev.c[j] + i * g;
        next.h[j] = o * std::tanh(next.c[j]);
    }
    return next;
}

bool
sameBytes(const Vector &a, const Vector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** One nn::lstmCellForward step from @p state with a fresh scratch. */
nn::LstmState
step(const nn::PackedRecurrent &u, const Vector &x_proj,
     nn::LstmState state, const nn::RowSkip &skip = {},
     std::size_t *skipped = nullptr)
{
    nn::LstmStepScratch scratch;
    const std::size_t n = nn::lstmCellForward(
        u, x_proj.span(), state, scratch, nn::SigmoidKind::Logistic, skip);
    if (skipped)
        *skipped = n;
    return state;
}

TEST(DrsCell, NoThresholdMatchesExactCell)
{
    nn::LstmLayerParams p(4, 6);
    tensor::Rng rng(1);
    p.init(rng);

    Vector x_proj(24);
    for (std::size_t j = 0; j < 24; ++j)
        x_proj[j] = rng.uniform(-1.0f, 1.0f);
    nn::LstmState prev(6);
    prev.h[2] = 0.4f;
    prev.c[3] = -0.7f;

    const nn::PackedRecurrent packed(p);
    std::size_t skipped = 123;
    const auto drs = step(packed, x_proj, prev,
                          {0.0, nn::DrsStatePolicy::ZeroState}, &skipped);
    const auto exact = step(packed, x_proj, prev);
    EXPECT_EQ(skipped, 0u);
    for (std::size_t j = 0; j < 6; ++j) {
        EXPECT_NEAR(drs.h[j], exact.h[j], 1e-6f);
        EXPECT_NEAR(drs.c[j], exact.c[j], 1e-6f);
    }
}

TEST(DrsCell, ThresholdOneSkipsEverything)
{
    nn::LstmLayerParams p(4, 6);
    tensor::Rng rng(2);
    p.init(rng);
    Vector x_proj(24, 0.2f);
    nn::LstmState prev(6);
    prev.h[0] = 0.5f;

    std::size_t skipped = 0;
    step(nn::PackedRecurrent(p), x_proj, prev, {0.999999}, &skipped);
    EXPECT_EQ(skipped, 6u);
}

TEST(DrsCell, ZeroStatePolicyNullsSkippedElements)
{
    nn::LstmLayerParams p(4, 6);
    tensor::Rng rng(3);
    p.init(rng);
    Vector x_proj(24, 0.3f);
    nn::LstmState prev(6);
    prev.c[1] = 2.0f;

    const auto out = step(nn::PackedRecurrent(p), x_proj, prev,
                          {0.999999, nn::DrsStatePolicy::ZeroState});
    for (std::size_t j = 0; j < 6; ++j) {
        EXPECT_FLOAT_EQ(out.c[j], 0.0f);
        EXPECT_FLOAT_EQ(out.h[j], 0.0f);
    }
}

TEST(DrsCell, DropRecurrentKeepsInputDrivenState)
{
    // Under the default policy a fully skipped cell still integrates
    // the input projection: c_t = f(Wx+b) * c_prev + i*g.
    nn::LstmLayerParams p(4, 6);
    tensor::Rng rng(4);
    p.init(rng);
    Vector x_proj(24, 0.3f);
    nn::LstmState prev(6);
    prev.c[1] = 2.0f;

    const auto out = step(nn::PackedRecurrent(p), x_proj, prev,
                          {0.999999});
    EXPECT_NE(out.c[1], 0.0f);  // forget path survived
}

TEST(DrsCell, SkippedRowsLoseOnlyRecurrentTerm)
{
    // Build a cell where U is nonzero only in row 0: skipping row 0
    // must equal running the exact cell with U zeroed in that row.
    nn::LstmLayerParams p(2, 4);
    tensor::Rng rng(5);
    p.init(rng);
    // Make the output gate of row 0 near-closed so DRS selects it:
    p.bo[0] = -50.0f;

    Vector x_proj(16);
    for (std::size_t j = 0; j < 16; ++j)
        x_proj[j] = rng.uniform(-0.5f, 0.5f);
    nn::LstmState prev(4);
    prev.h[1] = 0.6f;
    prev.c[0] = 0.8f;

    std::size_t skipped = 0;
    const auto drs = step(nn::PackedRecurrent(p), x_proj, prev, {0.01},
                          &skipped);
    ASSERT_EQ(skipped, 1u);

    nn::LstmLayerParams stripped = p;
    for (std::size_t c = 0; c < 4; ++c) {
        stripped.uf(0, c) = 0.0f;
        stripped.ui(0, c) = 0.0f;
        stripped.uc(0, c) = 0.0f;
    }
    const auto exact = step(nn::PackedRecurrent(stripped), x_proj, prev);
    for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_NEAR(drs.c[j], exact.c[j], 1e-6f);
        EXPECT_NEAR(drs.h[j], exact.h[j], 1e-6f);
    }
}

TEST(DrsCell, PanelCellsBitIdenticalToGemvReference)
{
    // H = 40 puts the U_f/U_i and U_i/U_c boundaries mid-panel, so DRS
    // masks give mixed, whole-skipped and clear panels. Every case runs
    // twice: with a fresh scratch per step, and with one scratch shared
    // by every step of every case, so each step inherits the buffers of
    // a different threshold and policy, and H = 40 those last sized for
    // H = 56.
    struct Case
    {
        double alpha;  ///< < 0: the dense cell (no row skip)
        nn::DrsStatePolicy policy;
    };
    std::vector<Case> cases = {{-1.0, nn::DrsStatePolicy::DropRecurrent}};
    for (nn::DrsStatePolicy policy : {nn::DrsStatePolicy::DropRecurrent,
                                      nn::DrsStatePolicy::ZeroState})
        for (double alpha : {0.05, 0.3, 0.5, 0.7, 0.999999})
            cases.push_back({alpha, policy});

    nn::LstmStepScratch shared;
    for (std::size_t hid : {6u, 56u, 40u}) {
        nn::LstmLayerParams p(7, hid);
        tensor::Rng rng(60 + hid);
        p.init(rng);
        const nn::PackedRecurrent packed(p);

        for (nn::SigmoidKind sk :
             {nn::SigmoidKind::Logistic, nn::SigmoidKind::Hard}) {
            for (const Case &c : cases) {
                const nn::RowSkip skip =
                    c.alpha < 0.0 ? nn::RowSkip{}
                                  : nn::RowSkip{c.alpha, c.policy};
                for (bool reuse : {false, true}) {
                    nn::LstmState cell(hid), want(hid);
                    cell.h[0] = want.h[0] = 0.5f;
                    for (int t = 0; t < 6; ++t) {
                        Vector x_proj(4 * hid);
                        for (float &v : x_proj)
                            v = rng.uniform(-2.0f, 2.0f);
                        nn::LstmStepScratch fresh;
                        nn::lstmCellForward(packed, x_proj.span(), cell,
                                            reuse ? shared : fresh, sk,
                                            skip);
                        want = referenceCell(p, x_proj, want, sk, c.alpha,
                                             c.policy);
                        ASSERT_TRUE(sameBytes(cell.h, want.h))
                            << hid << " alpha " << c.alpha << " reuse "
                            << reuse << " t" << t;
                        ASSERT_TRUE(sameBytes(cell.c, want.c))
                            << hid << " alpha " << c.alpha << " reuse "
                            << reuse << " t" << t;
                    }
                }
            }
        }
    }
}

TEST(LinkPredictor, ExpectationTracksObservedLinks)
{
    LinkPredictor pred(3, 32);
    for (int i = 0; i < 2000; ++i) {
        Vector h{0.5f, -0.25f, 0.0f};
        Vector c{1.0f, 0.0f, -2.0f};
        pred.observeLink(h, c);
    }
    const Vector ph = pred.predictedH();
    const Vector pc = pred.predictedC();
    EXPECT_NEAR(ph[0], 0.5f, 0.05f);
    EXPECT_NEAR(ph[1], -0.25f, 0.05f);
    // c histogram spans [-4, 4] in 32 bins: expectation quantises to
    // the 0.25-wide bin centre.
    EXPECT_NEAR(pc[0], 1.0f, 0.15f);
    EXPECT_NEAR(pc[2], -2.0f, 0.15f);
    EXPECT_EQ(pred.samples(), 2000u);
}

TEST(ApproxRunner, ZeroThresholdsMatchExactModel)
{
    const nn::LstmModel model(smallConfig(), 21);
    ApproxRunner runner(model);

    const std::int32_t toks[] = {1, 5, 9, 2, 14};
    const auto approx = runner.classify(toks);
    const auto exact = model.classify(toks);
    EXPECT_EQ(approx, exact);
}

TEST(ApproxRunner, RequiresCalibrationForDivision)
{
    const nn::LstmModel model(smallConfig(), 22);
    ApproxRunner runner(model);
    EXPECT_FALSE(runner.calibrated());
    EXPECT_THROW(runner.setThresholds(1.0, 0.0), std::logic_error);
    // DRS alone needs no calibration.
    EXPECT_NO_THROW(runner.setThresholds(0.0, 0.1));

    runner.calibrate(someSequences(3, 6, 7));
    EXPECT_TRUE(runner.calibrated());
    EXPECT_NO_THROW(runner.setThresholds(1.0, 0.1));
}

TEST(ApproxRunner, RejectsOutOfRangeThresholds)
{
    const nn::LstmModel model(smallConfig(), 23);
    ApproxRunner runner(model);
    EXPECT_THROW(runner.setThresholds(-1.0, 0.0), std::invalid_argument);
    EXPECT_THROW(runner.setThresholds(0.0, 1.0), std::invalid_argument);
}

TEST(ApproxRunner, StatsCountCellsAndLinks)
{
    const nn::LstmModel model(smallConfig(2), 24);
    ApproxRunner runner(model);
    runner.calibrate(someSequences(2, 8, 9));
    runner.setThresholds(1e9, 0.0);  // break every link

    const std::int32_t toks[] = {1, 2, 3, 4, 5, 6};
    runner.classify(toks);

    for (const LayerApproxStats &st : runner.stats()) {
        EXPECT_EQ(st.sequences, 1u);
        EXPECT_EQ(st.cells, 6u);
        EXPECT_EQ(st.links, 5u);
        EXPECT_EQ(st.breaks, 5u);  // threshold above any possible S
        EXPECT_DOUBLE_EQ(st.breakRate(), 1.0);
        EXPECT_DOUBLE_EQ(st.avgSubLayers(), 6.0);
    }

    runner.resetStats();
    EXPECT_EQ(runner.stats()[0].cells, 0u);
}

TEST(ApproxRunner, SkipFractionConsistentWithThresholdOne)
{
    const nn::LstmModel model(smallConfig(1), 25);
    ApproxRunner runner(model);
    runner.setThresholds(0.0, 0.999999);
    const std::int32_t toks[] = {3, 4, 5};
    runner.classify(toks);
    EXPECT_DOUBLE_EQ(
        runner.stats()[0].skipFraction(model.config().hiddenSize), 1.0);
}

TEST(ApproxRunner, BrokenLinksUsePredictedState)
{
    // With all links broken, changing early tokens cannot affect the
    // last cell beyond its own input: check the first layer's outputs
    // at the final step only depend on the final token.
    const nn::LstmModel model(smallConfig(1), 26);
    ApproxRunner runner(model);
    runner.calibrate(someSequences(4, 6, 11));
    runner.setThresholds(1e9, 0.0);

    const std::int32_t a[] = {1, 2, 3};
    const std::int32_t b[] = {9, 9, 3};  // same final token
    EXPECT_EQ(runner.classify(a), runner.classify(b));
}

TEST(ApproxRunner, ProfileIsSortedAndPopulated)
{
    const nn::LstmModel model(smallConfig(), 27);
    ApproxRunner runner(model);
    const auto prof = runner.profile(someSequences(3, 7, 13));

    // 3 seqs x 2 layers x 6 links; o gates: 3 x 2 x 7 x 10.
    EXPECT_EQ(prof.relevances.size(), 36u);
    EXPECT_EQ(prof.outputGates.size(), 420u);
    EXPECT_TRUE(std::is_sorted(prof.relevances.begin(),
                               prof.relevances.end()));
    EXPECT_TRUE(std::is_sorted(prof.outputGates.begin(),
                               prof.outputGates.end()));
    EXPECT_LE(prof.relevanceQuantile(0.0), prof.relevanceQuantile(1.0));
    EXPECT_LE(prof.outputGateQuantile(0.1),
              prof.outputGateQuantile(0.9));
}

TEST(ApproxMetrics, MatchExactHelpersAtZeroThresholds)
{
    const nn::LstmModel model(smallConfig(), 28);
    ApproxRunner runner(model);

    std::vector<nn::Sample> data;
    tensor::Rng rng(4);
    for (int i = 0; i < 10; ++i) {
        nn::Sample s;
        for (int t = 0; t < 5; ++t)
            s.tokens.push_back(
                static_cast<std::int32_t>(rng.integer(0, 15)));
        s.label = static_cast<std::int32_t>(rng.integer(0, 1));
        data.push_back(s);
    }
    EXPECT_DOUBLE_EQ(approxClassificationAccuracy(runner, data),
                     nn::classificationAccuracy(model, data));
}

} // namespace
