/**
 * @file
 * Tests for the threshold tuning space: limits, the 11-set ladder of
 * Fig. 19, the AO/BPA selectors and the preference-constrained selector
 * that underlies the UO scheme, plus the plan builder.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/planner.hh"
#include "core/thresholds.hh"

namespace {

using namespace mflstm;
using namespace mflstm::core;

ApproxRunner::CalibrationProfile
syntheticProfile()
{
    ApproxRunner::CalibrationProfile prof;
    prof.layerRelevances.resize(1);
    for (int i = 0; i <= 100; ++i) {
        prof.relevances.push_back(static_cast<double>(i));
        prof.layerRelevances[0].push_back(static_cast<double>(i));
        prof.outputGates.push_back(static_cast<float>(i) / 100.0f);
    }
    return prof;
}

TEST(ThresholdLimits, QuantilesFromProfile)
{
    const auto prof = syntheticProfile();
    const ThresholdLimits lim = findThresholdLimits(prof, 5, 81, 0.75);
    // maxBreakFraction = 4/80 = 5% -> 5th percentile of 0..100.
    EXPECT_NEAR(lim.maxBreakFraction, 0.05, 1e-12);
    EXPECT_NEAR(lim.maxInter, 5.0, 1.0);
    EXPECT_NEAR(lim.maxIntra, 0.75, 0.01);
    EXPECT_DOUBLE_EQ(lim.maxSkipFraction, 0.75);
}

TEST(ThresholdLimits, RejectsZeroInputs)
{
    const auto prof = syntheticProfile();
    EXPECT_THROW(findThresholdLimits(prof, 0, 10),
                 std::invalid_argument);
    EXPECT_THROW(findThresholdLimits(prof, 5, 0),
                 std::invalid_argument);
}

TEST(ProjectedTissueCount, MonotoneNonIncreasingInAlpha)
{
    const auto prof = syntheticProfile();
    std::size_t prev = projectedTissueCount(prof, 0.0, 5, 81);
    EXPECT_EQ(prev, 81u);  // no breaks: one cell per tissue
    for (double alpha : {5.0, 20.0, 50.0, 90.0}) {
        const std::size_t count = projectedTissueCount(prof, alpha, 5,
                                                       81);
        EXPECT_LE(count, prev);
        prev = count;
    }
    // Enough breaks reach Eq. 7's floor of ceil(81/5) = 17.
    EXPECT_EQ(projectedTissueCount(prof, 90.0, 5, 81), 17u);
}

TEST(ProjectedTissueCount, LayerBreakFractionLookup)
{
    const auto prof = syntheticProfile();
    EXPECT_DOUBLE_EQ(prof.layerBreakFraction(0, 0.0), 0.0);
    EXPECT_NEAR(prof.layerBreakFraction(0, 50.0), 0.5, 0.01);
    EXPECT_DOUBLE_EQ(prof.layerBreakFraction(0, 1e9), 1.0);
    // Out-of-range layer is harmless.
    EXPECT_DOUBLE_EQ(prof.layerBreakFraction(7, 50.0), 0.0);
}

TEST(ThresholdLimits, PicksSmallestAlphaAtMinTissueCount)
{
    const auto prof = syntheticProfile();
    const ThresholdLimits lim = findThresholdLimits(prof, 5, 81, 0.75);
    const std::size_t at_limit =
        projectedTissueCount(prof, lim.maxInter, 5, 81);
    // The limit achieves the minimum over the swept range...
    EXPECT_EQ(at_limit, projectedTissueCount(
                            prof, prof.relevanceQuantile(0.5), 5, 81));
    // ...and a slightly smaller alpha would not.
    EXPECT_GT(projectedTissueCount(prof, lim.maxInter * 0.5, 5, 81),
              at_limit);
}

TEST(ThresholdLadder, ElevenMonotoneSets)
{
    const auto prof = syntheticProfile();
    const ThresholdLimits lim = findThresholdLimits(prof, 5, 81, 0.75);
    const auto ladder = thresholdLadder(prof, lim);

    ASSERT_EQ(ladder.size(), 11u);
    EXPECT_DOUBLE_EQ(ladder[0].alphaInter, 0.0);  // set 0 = baseline
    EXPECT_DOUBLE_EQ(ladder[0].alphaIntra, 0.0);
    for (std::size_t i = 1; i < ladder.size(); ++i) {
        EXPECT_GE(ladder[i].alphaInter, ladder[i - 1].alphaInter);
        EXPECT_GE(ladder[i].alphaIntra, ladder[i - 1].alphaIntra);
    }
    EXPECT_NEAR(ladder.back().alphaInter, lim.maxInter, 1.0);
    EXPECT_NEAR(ladder.back().alphaIntra, lim.maxIntra, 0.02);
}

TEST(ThresholdLadder, RejectsTinyCount)
{
    const auto prof = syntheticProfile();
    EXPECT_THROW(thresholdLadder(prof, {}, 1), std::invalid_argument);
}

std::vector<OperatingPoint>
tradeoffCurve()
{
    // A typical Fig. 19 curve: speedup rises, accuracy falls.
    std::vector<OperatingPoint> pts;
    const double speedups[] = {1.0, 1.3, 1.6, 1.9, 2.2, 2.5,
                               2.8, 3.0, 3.2, 3.3, 3.4};
    const double accs[] = {0.90, 0.90, 0.895, 0.89, 0.885, 0.88,
                           0.87, 0.85, 0.82, 0.75, 0.60};
    for (std::size_t i = 0; i < 11; ++i)
        pts.push_back({i, {}, speedups[i], accs[i]});
    return pts;
}

TEST(Selection, AoPicksFastestWithinLossBudget)
{
    const auto pts = tradeoffCurve();
    // 2% of 0.90 baseline -> floor 0.88: set 5 is the fastest eligible.
    EXPECT_EQ(selectAo(pts, 0.90, 2.0), 5u);
}

TEST(Selection, AoFallsBackToMostAccurate)
{
    std::vector<OperatingPoint> pts = {{0, {}, 2.0, 0.5},
                                       {1, {}, 3.0, 0.4}};
    // Nothing within 2% of 0.9: pick the most accurate.
    EXPECT_EQ(selectAo(pts, 0.9, 2.0), 0u);
}

TEST(Selection, BpaMaximisesProduct)
{
    const auto pts = tradeoffCurve();
    std::size_t best = 0;
    double best_score = 0.0;
    for (const auto &p : pts) {
        if (p.speedup * p.accuracy > best_score) {
            best_score = p.speedup * p.accuracy;
            best = p.index;
        }
    }
    EXPECT_EQ(selectBpa(pts), best);
    // And BPA trades more accuracy than AO (the Fig. 18 tension).
    EXPECT_GT(selectBpa(pts), selectAo(pts, 0.90, 2.0));
}

TEST(Selection, PreferenceConstrained)
{
    const auto pts = tradeoffCurve();
    EXPECT_EQ(selectForPreference(pts, 0.886), 3u);
    EXPECT_EQ(selectForPreference(pts, 0.60), 10u);
    // Impossible floor: most accurate point wins.
    EXPECT_EQ(selectForPreference(pts, 0.99), 0u);
}

TEST(Selection, EmptyPointsThrow)
{
    EXPECT_THROW(selectAo({}, 1.0), std::invalid_argument);
    EXPECT_THROW(selectBpa({}), std::invalid_argument);
    EXPECT_THROW(selectForPreference({}, 0.5), std::invalid_argument);
}

TEST(Planner, EvenSubLayersPartition)
{
    EXPECT_EQ(evenSubLayers(10, 3),
              (std::vector<std::size_t>{4, 3, 3}));
    EXPECT_EQ(evenSubLayers(9, 3), (std::vector<std::size_t>{3, 3, 3}));
    EXPECT_EQ(evenSubLayers(5, 99),
              (std::vector<std::size_t>{1, 1, 1, 1, 1}));
    EXPECT_EQ(evenSubLayers(5, 0), (std::vector<std::size_t>{5}));
    EXPECT_TRUE(evenSubLayers(0, 3).empty());
}

TEST(Planner, BuildPlanProjectsBreakRate)
{
    std::vector<LayerApproxStats> stats(2);
    stats[0].sequences = 1;
    stats[0].links = 20;
    stats[0].breaks = 4;   // 20% break rate
    stats[0].cells = 21;
    stats[1].sequences = 1;
    stats[1].links = 20;
    stats[1].breaks = 0;
    stats[1].cells = 21;
    stats[1].skippedRows = 21.0 * 8.0;  // skip 8 of 16 rows per cell

    const auto shape = runtime::NetworkShape::stacked(512, 512, 2, 41);
    const auto plan = buildPlan(runtime::PlanKind::Combined, stats,
                                shape, 5, 16, quant::QuantMode::Int8);

    ASSERT_EQ(plan.decisions.layers.size(), 2u);
    const auto &t0 = plan.decisions.layers[0].tissueSizes;
    const auto &t1 = plan.decisions.layers[1].tissueSizes;
    // Layer 0: 0.2 * 40 breaks -> 9 sub-layers -> tissues <= 5 covering
    // all 41 cells.
    EXPECT_EQ(std::accumulate(t0.begin(), t0.end(), std::size_t{0}), 41u);
    EXPECT_LE(*std::max_element(t0.begin(), t0.end()), 5u);
    EXPECT_TRUE(plan.decisions.layers[0].usesTissues());
    // Layer 1 never breaks: single sub-layer, all tissues of size 1.
    EXPECT_EQ(*std::max_element(t1.begin(), t1.end()), 1u);

    EXPECT_DOUBLE_EQ(plan.decisions.layers[0].skipFraction, 0.0);
    EXPECT_DOUBLE_EQ(plan.decisions.layers[1].skipFraction, 0.5);
    for (const runtime::LayerSchedule &ls : plan.decisions.layers) {
        EXPECT_EQ(ls.skipPath, runtime::SkipPath::HwCrm);
        EXPECT_EQ(ls.quant, quant::QuantMode::Int8);
    }
}

TEST(Planner, BuildPlanValidatesInputs)
{
    std::vector<LayerApproxStats> stats(1);
    const auto shape = runtime::NetworkShape::stacked(64, 64, 2, 10);
    EXPECT_THROW(buildPlan(runtime::PlanKind::InterCell, stats, shape,
                           5, 16, quant::QuantMode::Fp32),
                 std::invalid_argument);

    std::vector<LayerApproxStats> stats2(2);
    EXPECT_THROW(buildPlan(runtime::PlanKind::InterCell, stats2, shape,
                           5, 0, quant::QuantMode::Fp32),
                 std::invalid_argument);
}

TEST(Planner, BaselineKindEmitsNoDecisions)
{
    std::vector<LayerApproxStats> stats(1);
    const auto shape = runtime::NetworkShape::stacked(64, 64, 1, 10);
    const auto plan = buildPlan(runtime::PlanKind::Baseline, stats,
                                shape, 5, 16, quant::QuantMode::Fp32);
    // One dense layer: no tissue and no skip decision.
    EXPECT_EQ(plan.decisions.layers,
              std::vector<runtime::LayerSchedule>(1));
}

} // namespace
