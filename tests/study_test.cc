/**
 * @file
 * Tests for the user-study simulation (Section VI-E): the satisfaction
 * model, population sampling, and the scheme ordering the paper reports
 * in Fig. 18 (UO > AO > Baseline, BPA penalised for accuracy loss).
 */

#include <gtest/gtest.h>

#include "study/study.hh"

namespace {

using namespace mflstm;
using namespace mflstm::study;

std::vector<core::OperatingPoint>
tradeoffCurve()
{
    std::vector<core::OperatingPoint> pts;
    const double speedups[] = {1.0, 1.4, 1.8, 2.1, 2.4, 2.6,
                               2.8, 3.0, 3.1, 3.2, 3.3};
    const double accs[] = {0.92, 0.92, 0.915, 0.91, 0.905, 0.90,
                           0.89, 0.86, 0.80, 0.72, 0.60};
    for (std::size_t i = 0; i < 11; ++i)
        pts.push_back({i, {}, speedups[i], accs[i]});
    return pts;
}

TEST(Satisfaction, BaselineIsNeutral)
{
    UserProfile u;
    const double s = satisfactionScore(u, 1.0, 0.9, 0.9, 0.0);
    EXPECT_DOUBLE_EQ(s, 3.0);
}

TEST(Satisfaction, SpeedupRaisesScore)
{
    UserProfile u;
    const double fast = satisfactionScore(u, 2.5, 0.9, 0.9, 0.0);
    EXPECT_GT(fast, 3.0);
}

TEST(Satisfaction, AccuracyLossLowersScore)
{
    UserProfile u;
    const double same_speed = satisfactionScore(u, 1.0, 0.8, 0.9, 0.0);
    EXPECT_LT(same_speed, 3.0);
}

TEST(Satisfaction, ClampedToScale)
{
    UserProfile u;
    u.delayReward = 100.0;
    EXPECT_DOUBLE_EQ(satisfactionScore(u, 100.0, 0.9, 0.9, 0.0), 5.0);
    u.accuracyPenalty = 100.0;
    EXPECT_DOUBLE_EQ(satisfactionScore(u, 1.0, 0.0, 0.9, 0.0), 1.0);
}

TEST(Satisfaction, SlowdownPenalised)
{
    UserProfile u;
    EXPECT_LT(satisfactionScore(u, 0.6, 0.9, 0.9, 0.0), 3.0);
}

TEST(Population, DeterministicAndHeterogeneous)
{
    const auto a = samplePopulation(30, 7, 0.9);
    const auto b = samplePopulation(30, 7, 0.9);
    ASSERT_EQ(a.size(), 30u);
    for (std::size_t i = 0; i < 30; ++i) {
        EXPECT_DOUBLE_EQ(a[i].delayReward, b[i].delayReward);
        EXPECT_DOUBLE_EQ(a[i].minAccuracy, b[i].minAccuracy);
    }
    bool differs = false;
    for (std::size_t i = 1; i < 30; ++i)
        differs |= a[i].delayReward != a[0].delayReward;
    EXPECT_TRUE(differs);
    for (const UserProfile &u : a) {
        EXPECT_LT(u.minAccuracy, 0.9);
        EXPECT_GT(u.minAccuracy, 0.8);
    }
}

TEST(UserStudy, ReproducesFig18Ordering)
{
    const auto pts = tradeoffCurve();
    const std::size_t ao = core::selectAo(pts, 0.92, 2.0);
    const std::size_t bpa = core::selectBpa(pts);
    const StudyResult res = runUserStudy(pts, 0.92, ao, bpa);

    // Fig. 18: AO beats the baseline (faster, imperceptible loss)...
    EXPECT_GT(res.score(Scheme::Ao), res.score(Scheme::Baseline));
    // ...BPA trades too much accuracy to please most users...
    EXPECT_LT(res.score(Scheme::Bpa), res.score(Scheme::Ao));
    // ...and UO, tuned per user, is the best of all four.
    EXPECT_GE(res.score(Scheme::Uo), res.score(Scheme::Ao) - 1e-9);
    EXPECT_GT(res.score(Scheme::Uo), res.score(Scheme::Baseline));

    for (Scheme s : {Scheme::Baseline, Scheme::Ao, Scheme::Bpa,
                     Scheme::Uo}) {
        EXPECT_GE(res.score(s), 1.0);
        EXPECT_LE(res.score(s), 5.0);
    }
}

TEST(UserStudy, DeterministicGivenSeed)
{
    const auto pts = tradeoffCurve();
    const StudyResult a = runUserStudy(pts, 0.92, 5, 8);
    const StudyResult b = runUserStudy(pts, 0.92, 5, 8);
    for (std::size_t s = 0; s < 4; ++s)
        EXPECT_DOUBLE_EQ(a.meanScore[s], b.meanScore[s]);

    ReplayConfig cfg;
    cfg.seed = 99;
    const StudyResult c = runUserStudy(pts, 0.92, 5, 8, cfg);
    EXPECT_NE(a.meanScore[1], c.meanScore[1]);
}

TEST(UserStudy, ValidatesInputs)
{
    EXPECT_THROW(runUserStudy({}, 0.9, 0, 0), std::invalid_argument);
    const auto pts = tradeoffCurve();
    EXPECT_THROW(runUserStudy(pts, 0.9, 99, 0), std::out_of_range);
}

} // namespace
