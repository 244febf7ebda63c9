/**
 * @file
 * Tests for the streaming statistics used by the context-link predictor
 * (Eq. 6) and the Rng determinism guarantees.
 */

#include <gtest/gtest.h>

#include "tensor/rng.hh"
#include "tensor/stats.hh"

namespace {

using namespace mflstm::tensor;

TEST(Histogram, ExpectationOfPointMass)
{
    Histogram h(-1.0, 1.0, 20);
    for (int i = 0; i < 100; ++i)
        h.add(0.55);
    // All mass in one bin; expectation is that bin's centre.
    EXPECT_NEAR(h.expectation(), 0.55, 0.05);
}

TEST(Histogram, ClampsOutOfRangeToEdges)
{
    Histogram h(-1.0, 1.0, 4);
    h.add(-100.0);
    h.add(100.0);
    EXPECT_EQ(h.samples(), 2u);
    EXPECT_NEAR(h.probability(0), 0.5, 1e-12);
    EXPECT_NEAR(h.probability(3), 0.5, 1e-12);
}

TEST(Histogram, ExpectationMatchesSampleMean)
{
    Rng rng(7);
    Histogram h(-1.0, 1.0, 200);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.uniform(-0.8f, 0.4f);
        h.add(x);
        sum += x;
    }
    EXPECT_NEAR(h.expectation(), sum / n, 0.01);
}

TEST(Histogram, RejectsDegenerateConfig)
{
    EXPECT_THROW(Histogram(0.0, 0.0, 4), std::invalid_argument);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(VectorDistribution, ExpectationIsPerElement)
{
    VectorDistribution dist(2, -1.0, 1.0, 100);
    Rng rng(11);
    for (int i = 0; i < 5000; ++i) {
        Vector v(2);
        v[0] = rng.uniform(-0.5f, 0.5f);   // mean ~0
        v[1] = rng.uniform(0.2f, 0.8f);    // mean ~0.5
        dist.observe(v);
    }
    const Vector e = dist.expectation();
    EXPECT_NEAR(e[0], 0.0f, 0.05f);
    EXPECT_NEAR(e[1], 0.5f, 0.05f);
    EXPECT_EQ(dist.samples(), 5000u);
}

TEST(VectorDistribution, RejectsDimMismatch)
{
    VectorDistribution dist(3, -1.0, 1.0, 10);
    Vector v(2);
    EXPECT_THROW(dist.observe(v), std::invalid_argument);
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_FLOAT_EQ(a.uniform(0.0f, 1.0f), b.uniform(0.0f, 1.0f));
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    bool differs = false;
    for (int i = 0; i < 10 && !differs; ++i)
        differs = a.uniform(0.0f, 1.0f) != b.uniform(0.0f, 1.0f);
    EXPECT_TRUE(differs);
}

TEST(Rng, XavierBoundRespected)
{
    Rng rng(5);
    Matrix m(64, 64);
    rng.fillXavier(m, 64, 64);
    const float bound = std::sqrt(6.0f / 128.0f);
    for (std::size_t i = 0; i < m.size(); ++i) {
        EXPECT_LE(m.data()[i], bound);
        EXPECT_GE(m.data()[i], -bound);
    }
}

TEST(Rng, IntegerInRangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.integer(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

} // namespace
