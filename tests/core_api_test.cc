/**
 * @file
 * Integration tests for the MemoryFriendlyLstm facade on a small model:
 * calibration, threshold evaluation, and the end-to-end consistency
 * between the accuracy-side statistics and the timing-side plans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/api.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;
using namespace mflstm::core;

nn::ModelConfig
modelConfig()
{
    nn::ModelConfig cfg;
    cfg.task = nn::TaskKind::Classification;
    cfg.vocab = 20;
    cfg.embedSize = 8;
    cfg.hiddenSize = 12;
    cfg.numLayers = 2;
    cfg.numClasses = 2;
    return cfg;
}

std::vector<std::vector<std::int32_t>>
seqs(std::size_t n, std::size_t len, std::uint64_t seed)
{
    tensor::Rng rng(seed);
    std::vector<std::vector<std::int32_t>> out(n);
    for (auto &s : out)
        for (std::size_t t = 0; t < len; ++t)
            s.push_back(static_cast<std::int32_t>(rng.integer(0, 19)));
    return out;
}

class ApiTest : public ::testing::Test
{
  protected:
    ApiTest()
        : model(modelConfig(), 77),
          mf(model, {gpu::GpuConfig::tegraX1(),
                     runtime::NetworkShape::stacked(512, 512, 2, 40)})
    {}

    nn::LstmModel model;
    MemoryFriendlyLstm mf;
};

TEST_F(ApiTest, ConstructionRunsBaseline)
{
    EXPECT_GT(mf.baseline().result.timeUs, 0.0);
    EXPECT_EQ(mf.baseline().kind, runtime::PlanKind::Baseline);
    // Section III: Sgemv dominates the baseline.
    EXPECT_GT(mf.baseline().result.classShare(gpu::KernelClass::Sgemv),
              0.9);
}

TEST_F(ApiTest, LayerCountMismatchRejected)
{
    EXPECT_THROW(
        MemoryFriendlyLstm(model,
                           {gpu::GpuConfig::tegraX1(),
                            runtime::NetworkShape::stacked(64, 64, 3,
                                                           10)}),
        std::invalid_argument);
}

TEST_F(ApiTest, CalibrationRequiredBeforeUse)
{
    EXPECT_FALSE(mf.calibrated());
    EXPECT_THROW(mf.calibration(), std::logic_error);
    EXPECT_THROW(mf.evaluateTiming({runtime::PlanKind::InterCell}),
                 std::logic_error);

    mf.calibrate(seqs(4, 8, 5));
    EXPECT_TRUE(mf.calibrated());
    EXPECT_GE(mf.calibration().mts, 1u);
    EXPECT_FALSE(mf.calibration().profile.relevances.empty());
}

TEST_F(ApiTest, BaselineEvaluationIsIdentity)
{
    const TimingOutcome out =
        mf.evaluateTiming({runtime::PlanKind::Baseline});
    EXPECT_DOUBLE_EQ(out.speedup, 1.0);
    EXPECT_DOUBLE_EQ(out.energySavingPct, 0.0);
}

TEST_F(ApiTest, ZeroPruningNeedsNoCalibration)
{
    const TimingOutcome out =
        mf.evaluateTiming({runtime::PlanKind::ZeroPruning});
    EXPECT_LT(out.speedup, 1.0);  // Fig. 16: pruning degrades GPU perf
    for (const runtime::LayerSchedule &ls : out.plan.decisions.layers)
        EXPECT_DOUBLE_EQ(ls.pruneFraction, runtime::kZeroPruningFraction);
}

TEST_F(ApiTest, IntraCellTimingImprovesWithSkips)
{
    mf.calibrate(seqs(4, 8, 5));
    mf.runner().setThresholds(0.0, 0.4);
    // Drive a few sequences through so stats carry a skip fraction.
    for (const auto &s : seqs(5, 10, 6))
        mf.runner().classify(s);

    const double skip =
        mf.runner().stats()[0].skipFraction(modelConfig().hiddenSize);
    const TimingOutcome hw =
        mf.evaluateTiming({runtime::PlanKind::IntraCellHw});
    const TimingOutcome sw =
        mf.evaluateTiming({runtime::PlanKind::IntraCellSw});

    if (skip > 0.1) {
        EXPECT_GT(hw.speedup, 1.1);
        // Software row-skip barely helps (Fig. 16).
        EXPECT_LT(sw.speedup, hw.speedup);
        EXPECT_GT(sw.speedup, 0.9);
    }
    EXPECT_EQ(hw.plan.kind, runtime::PlanKind::IntraCellHw);
    ASSERT_EQ(hw.plan.decisions.layers.size(), 2u);
    EXPECT_NEAR(hw.plan.layerSchedule(0).skipFraction, skip, 1e-9);
}

TEST_F(ApiTest, InterCellTimingUsesAlignedTissues)
{
    mf.calibrate(seqs(4, 8, 5));
    mf.runner().resetStats();
    mf.runner().setThresholds(1e9, 0.0);  // break everything
    for (const auto &s : seqs(3, 10, 7))
        mf.runner().classify(s);

    const TimingOutcome out =
        mf.evaluateTiming({runtime::PlanKind::InterCell});
    ASSERT_EQ(out.plan.decisions.layers.size(), 2u);
    for (const runtime::LayerSchedule &ls : out.plan.decisions.layers) {
        const std::vector<std::size_t> &t = ls.tissueSizes;
        EXPECT_EQ(std::accumulate(t.begin(), t.end(), std::size_t{0}),
                  40u);
        EXPECT_EQ(*std::max_element(t.begin(), t.end()),
                  mf.calibration().mts);
    }
    // Full division at H=512, n=40: big win.
    EXPECT_GT(out.speedup, 2.0);
    EXPECT_GT(out.energySavingPct, 10.0);
}

TEST_F(ApiTest, CombinedAtZeroThresholdsIsNearBaseline)
{
    mf.calibrate(seqs(4, 8, 5));
    mf.runner().resetStats();
    mf.runner().setThresholds(0.0, 0.0);
    for (const auto &s : seqs(3, 10, 8))
        mf.runner().classify(s);

    const TimingOutcome out =
        mf.evaluateTiming({runtime::PlanKind::Combined});
    // No divisions, no skips: the plan degenerates to per-cell flow and
    // only pays small bookkeeping overheads.
    EXPECT_NEAR(out.speedup, 1.0, 0.05);
}

TEST_F(ApiTest, LadderEndsAtBaselineAndLimits)
{
    const auto &cal = mf.calibrate(seqs(6, 10, 9));
    const auto ladder = cal.ladder();
    ASSERT_EQ(ladder.size(), 11u);
    EXPECT_DOUBLE_EQ(ladder[0].alphaInter, 0.0);
    EXPECT_NEAR(ladder.back().alphaIntra, cal.limits.maxIntra, 1e-6);
}

TEST_F(ApiTest, SetThresholdsForwardsQuantModeToRunner)
{
    mf.calibrate(seqs(4, 8, 5));
    EXPECT_EQ(mf.runner().quantMode(), quant::QuantMode::Fp32);
    mf.setThresholds({0.0, 0.0, quant::QuantMode::Int8});
    EXPECT_EQ(mf.runner().quantMode(), quant::QuantMode::Int8);
    mf.setThresholds({0.0, 0.0, quant::QuantMode::Fp32});
    EXPECT_EQ(mf.runner().quantMode(), quant::QuantMode::Fp32);
}

TEST_F(ApiTest, QuantModeChangesClassifierOutputsReversibly)
{
    mf.calibrate(seqs(4, 8, 5));
    const auto input = seqs(1, 10, 42)[0];
    const tensor::Vector fp32 = mf.runner().classify(input);

    mf.setThresholds({0.0, 0.0, quant::QuantMode::Int8});
    const tensor::Vector q8 = mf.runner().classify(input);
    EXPECT_NE(fp32, q8);  // quantization perturbs the logits...
    for (std::size_t i = 0; i < q8.size(); ++i)
        EXPECT_NEAR(q8[i], fp32[i], 0.5);  // ...but only slightly

    // Dropping back to fp32 restores the original model exactly.
    mf.setThresholds({0.0, 0.0, quant::QuantMode::Fp32});
    EXPECT_EQ(mf.runner().classify(input), fp32);
}

TEST_F(ApiTest, QuantizedBaselineTimingIsNotShortCircuited)
{
    mf.calibrate(seqs(4, 8, 5));

    // fp32 Baseline is the identity by definition...
    const TimingOutcome fp32 =
        mf.evaluateTiming({runtime::PlanKind::Baseline});
    EXPECT_DOUBLE_EQ(fp32.speedup, 1.0);
    EXPECT_EQ(fp32.plan.layerSchedule(0).quant, quant::QuantMode::Fp32);

    // ...but a quantized Baseline must actually run the executor: its
    // lighter weight stream beats the fp32 reference (the Fig. 16
    // "INT8 alone" mechanism).
    mf.setThresholds({0.0, 0.0, quant::QuantMode::Int8});
    const TimingOutcome q8 =
        mf.evaluateTiming({runtime::PlanKind::Baseline});
    EXPECT_EQ(q8.plan.layerSchedule(0).quant, quant::QuantMode::Int8);
    EXPECT_GT(q8.speedup, 1.0);
    EXPECT_LT(q8.report.result.weightDramBytes,
              mf.baseline().result.weightDramBytes / 3.0);
}

TEST_F(ApiTest, QuantModeReachesBuiltCombinedPlan)
{
    // The quant mode must survive planFromStats for *built* plans, not
    // just the Baseline/ZeroPruning early returns: the composed plan
    // streams >3x fewer weight bytes and saves more energy than its
    // fp32 twin. (Speedup is NOT asserted pointwise here — the int8
    // run re-derives its stats from the fake-quantized model, so the
    // plans may differ; the beats-both gate lives in Fig. 16 at AO.)
    mf.calibrate(seqs(4, 8, 5));
    // A huge alphaInter breaks every link (aligned tissues of size MTS)
    // so the combined plan actually exercises the tissue flow.
    mf.setThresholds({1e9, 0.4, quant::QuantMode::Fp32});
    for (const auto &s : seqs(5, 10, 6))
        mf.runner().classify(s);
    const TimingOutcome comb =
        mf.evaluateTiming({runtime::PlanKind::Combined});
    EXPECT_GT(comb.speedup, 1.5);

    mf.setThresholds({1e9, 0.4, quant::QuantMode::Int8});
    for (const auto &s : seqs(5, 10, 6))
        mf.runner().classify(s);
    const TimingOutcome comb_q8 =
        mf.evaluateTiming({runtime::PlanKind::Combined});

    EXPECT_EQ(comb_q8.plan.layerSchedule(0).quant,
              quant::QuantMode::Int8);
    EXPECT_GT(comb_q8.speedup, 1.5);
    EXPECT_LT(comb_q8.report.result.weightDramBytes,
              comb.report.result.weightDramBytes / 3.0);
    EXPECT_GT(comb_q8.energySavingPct, comb.energySavingPct);
}

TEST_F(ApiTest, ZeroPruningPlanStaysFp32EvenWhenQuantRequested)
{
    mf.setThresholds({0.0, 0.0, quant::QuantMode::Int8});
    const TimingOutcome zp =
        mf.evaluateTiming({runtime::PlanKind::ZeroPruning});
    // The plan carries the mode, but the lowering defines the CSR
    // comparator at fp32 — same traffic as an unstamped pruning plan.
    mf.setThresholds({});
    const TimingOutcome zp_fp32 =
        mf.evaluateTiming({runtime::PlanKind::ZeroPruning});
    EXPECT_DOUBLE_EQ(zp.report.result.weightDramBytes,
                     zp_fp32.report.result.weightDramBytes);
}

} // namespace
