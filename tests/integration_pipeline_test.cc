/**
 * @file
 * End-to-end integration regression: the full paper pipeline — train a
 * (tiny) accuracy model on a synthetic task, calibrate against the
 * simulated TX1, sweep the threshold ladder, select AO — must deliver a
 * real speedup at a small accuracy loss, with internally consistent
 * plans. This is the quickstart example in test form, scaled to run in
 * a few seconds.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/api.hh"
#include "study/study.hh"
#include "workloads/datagen.hh"

namespace {

using namespace mflstm;

class PipelineTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workloads::BenchmarkSpec spec =
            workloads::benchmarkByName("IMDB");
        spec.modelHidden = 32;
        spec.modelLength = 16;
        spec.vocab = 32;

        data_ = new workloads::TaskData(
            workloads::makeTask(spec, 160, 60));
        model_ = new nn::LstmModel(
            workloads::trainAccuracyModel(spec, *data_, 10));
        mf_ = new core::MemoryFriendlyLstm(
            *model_, {gpu::GpuConfig::tegraX1(), spec.timingShape()});
        mf_->calibrate(data_->calibrationSequences(24));
        baseAcc_ = workloads::exactAccuracy(*model_, *data_);
    }

    static void
    TearDownTestSuite()
    {
        delete mf_;
        delete model_;
        delete data_;
        mf_ = nullptr;
        model_ = nullptr;
        data_ = nullptr;
    }

    static workloads::TaskData *data_;
    static nn::LstmModel *model_;
    static core::MemoryFriendlyLstm *mf_;
    static double baseAcc_;
};

workloads::TaskData *PipelineTest::data_ = nullptr;
nn::LstmModel *PipelineTest::model_ = nullptr;
core::MemoryFriendlyLstm *PipelineTest::mf_ = nullptr;
double PipelineTest::baseAcc_ = 0.0;

TEST_F(PipelineTest, ModelLearnedTheTask)
{
    EXPECT_GT(baseAcc_, 0.75);  // binary task, chance = 0.5
}

TEST_F(PipelineTest, CalibrationIsSane)
{
    const auto &cal = mf_->calibration();
    EXPECT_GE(cal.mts, 2u);
    EXPECT_LE(cal.mts, 8u);
    EXPECT_GT(cal.limits.maxIntra, 0.0);
    EXPECT_LT(cal.limits.maxIntra, 1.0);
    EXPECT_FALSE(cal.profile.relevances.empty());
}

TEST_F(PipelineTest, AoDeliversSpeedupWithinLossBudget)
{
    const auto ladder = mf_->calibration().ladder();
    std::vector<core::OperatingPoint> points;
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        mf_->runner().resetStats();
        mf_->runner().setThresholds(ladder[i].alphaInter,
                                    ladder[i].alphaIntra);
        core::OperatingPoint pt;
        pt.index = i;
        pt.accuracy = core::approxClassificationAccuracy(
            mf_->runner(), data_->cls.test);
        pt.speedup =
            mf_->evaluateTiming(runtime::PlanKind::Combined).speedup;
        points.push_back(pt);
    }

    const std::size_t ao = core::selectAo(points, baseAcc_, 2.0);
    // The tiny CI-sized model has a noisy accuracy curve, so AO can be
    // conservative here; it must still deliver a real improvement.
    EXPECT_GT(points[ao].speedup, 1.05);
    EXPECT_GE(points[ao].accuracy, baseAcc_ - 0.02 - 1e-9);

    // And the curve makes sense: the aggressive end is much faster.
    EXPECT_GT(points.back().speedup, 1.5);
    EXPECT_GE(points.back().speedup, points[ao].speedup - 1e-9);

    // The user study on this curve reproduces the Fig. 18 ordering.
    const study::StudyResult res = study::runUserStudy(
        points, baseAcc_, ao, core::selectBpa(points));
    EXPECT_GT(res.score(study::Scheme::Ao),
              res.score(study::Scheme::Baseline));
    EXPECT_GE(res.score(study::Scheme::Uo),
              res.score(study::Scheme::Ao) - 0.15);
}

TEST_F(PipelineTest, PlansAreInternallyConsistent)
{
    const auto ladder = mf_->calibration().ladder();
    mf_->runner().resetStats();
    mf_->runner().setThresholds(ladder.back().alphaInter,
                                ladder.back().alphaIntra);
    core::approxClassificationAccuracy(mf_->runner(), data_->cls.test);

    const core::TimingOutcome out =
        mf_->evaluateTiming(runtime::PlanKind::Combined);
    const auto &shape = mf_->config().timingShape;
    ASSERT_EQ(out.plan.decisions.layers.size(), shape.layers.size());
    for (std::size_t l = 0; l < shape.layers.size(); ++l) {
        const runtime::LayerSchedule &ls = out.plan.decisions.layers[l];
        EXPECT_EQ(std::accumulate(ls.tissueSizes.begin(),
                                  ls.tissueSizes.end(), std::size_t{0}),
                  shape.layers[l].length);
        EXPECT_GE(ls.skipFraction, 0.0);
        EXPECT_LE(ls.skipFraction, 1.0);
    }
    EXPECT_GT(out.report.result.kernelCount, 0u);
    EXPECT_LT(out.report.result.dramBytes,
              mf_->baseline().result.dramBytes);
}

TEST_F(PipelineTest, SchemeOrderingHolds)
{
    // At a mid-ladder rung: combined is at least as fast as each level
    // alone, and HW DRS beats SW DRS.
    const auto ladder = mf_->calibration().ladder();
    mf_->runner().resetStats();
    mf_->runner().setThresholds(ladder[6].alphaInter,
                                ladder[6].alphaIntra);
    core::approxClassificationAccuracy(mf_->runner(), data_->cls.test);

    const double comb =
        mf_->evaluateTiming(runtime::PlanKind::Combined).speedup;
    const double inter =
        mf_->evaluateTiming(runtime::PlanKind::InterCell).speedup;
    const double hw =
        mf_->evaluateTiming(runtime::PlanKind::IntraCellHw).speedup;
    const double sw =
        mf_->evaluateTiming(runtime::PlanKind::IntraCellSw).speedup;

    EXPECT_GE(comb, inter * 0.95);
    EXPECT_GE(comb, hw * 0.95);
    EXPECT_GE(hw, sw);
    EXPECT_LT(
        mf_->evaluateTiming(runtime::PlanKind::ZeroPruning).speedup,
        1.0);
}

} // namespace
