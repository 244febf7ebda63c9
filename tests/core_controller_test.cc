/**
 * @file
 * Tests for the online user-oriented threshold controller: climbing on
 * slack, backing off on violations, hysteresis under noisy feedback,
 * and convergence to the user's best rung.
 */

#include <gtest/gtest.h>

#include "core/controller.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;
using namespace mflstm::core;

/// rungs of the threshold ladder the tests walk
constexpr std::size_t kRungs = 11;

TEST(Controller, ConstructionValidates)
{
    EXPECT_THROW(UserOrientedController(0, 0.9),
                 std::invalid_argument);
    EXPECT_THROW(UserOrientedController(kRungs, 1.5),
                 std::invalid_argument);

    ControllerConfig cfg;
    cfg.initialIndex = 99;  // clamped to the top rung
    UserOrientedController c(kRungs, 0.9, cfg);
    EXPECT_EQ(c.currentIndex(), 10u);
}

TEST(Controller, ClimbsWhileAccuracyHasSlack)
{
    UserOrientedController c(kRungs, 0.90);
    EXPECT_EQ(c.currentIndex(), 0u);
    for (int i = 0; i < 5; ++i)
        c.observe(0.95);  // comfortably above the preference
    EXPECT_EQ(c.currentIndex(), 5u);
}

TEST(Controller, StopsAtTheTopRung)
{
    UserOrientedController c(3, 0.5);
    for (int i = 0; i < 10; ++i)
        c.observe(0.99);
    EXPECT_EQ(c.currentIndex(), 2u);
}

TEST(Controller, BacksOffOnViolation)
{
    ControllerConfig cfg;
    cfg.initialIndex = 6;
    UserOrientedController c(kRungs, 0.90, cfg);
    c.observe(0.80);  // user unhappy
    EXPECT_EQ(c.currentIndex(), 5u);
}

TEST(Controller, CooldownPreventsOscillation)
{
    ControllerConfig cfg;
    cfg.initialIndex = 5;
    cfg.cooldown = 3;
    UserOrientedController c(kRungs, 0.90, cfg);

    c.observe(0.50);  // back off to 4, start cooldown
    EXPECT_EQ(c.currentIndex(), 4u);
    // Good scores during cooldown must not climb back immediately.
    c.observe(0.99);
    c.observe(0.99);
    c.observe(0.99);
    EXPECT_EQ(c.currentIndex(), 4u);
    // After the cooldown drains, climbing resumes.
    c.observe(0.99);
    EXPECT_EQ(c.currentIndex(), 5u);
}

TEST(Controller, HoldsInsideTheDeadband)
{
    ControllerConfig cfg;
    cfg.initialIndex = 4;
    cfg.climbMargin = 0.02;
    UserOrientedController c(kRungs, 0.90, cfg);
    // Accuracy meets the preference but without climbing slack.
    for (int i = 0; i < 6; ++i)
        c.observe(0.905);
    EXPECT_EQ(c.currentIndex(), 4u);
}

TEST(Controller, FloorsAtBaseline)
{
    UserOrientedController c(kRungs, 0.99);
    for (int i = 0; i < 5; ++i)
        c.observe(0.10);
    EXPECT_EQ(c.currentIndex(), 0u);
}

TEST(Controller, ConvergesToTheUsersBestRung)
{
    // Ground truth: accuracy degrades with the rung; the user's floor
    // admits rungs 0..6. Noisy observations.
    auto accuracy_at = [](std::size_t idx) {
        return 0.98 - 0.01 * static_cast<double>(idx);
    };
    tensor::Rng rng(7);

    ControllerConfig cfg;
    cfg.climbMargin = 0.005;
    UserOrientedController c(kRungs, 0.915, cfg);
    for (int step = 0; step < 200; ++step) {
        const double noisy =
            accuracy_at(c.currentIndex()) + rng.normal(0.0f, 0.004f);
        c.observe(noisy);
    }
    // Settles in the neighbourhood of rung 6 (0.92 expected accuracy).
    EXPECT_GE(c.currentIndex(), 5u);
    EXPECT_LE(c.currentIndex(), 7u);
}

TEST(Controller, EstimateTracksEma)
{
    UserOrientedController c(kRungs, 0.5);
    c.observe(0.8);
    EXPECT_DOUBLE_EQ(c.estimate(), 0.8);
    EXPECT_EQ(c.observations(), 1u);
}

} // namespace
