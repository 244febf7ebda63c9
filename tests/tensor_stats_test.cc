/**
 * @file
 * Tests for the streaming statistics used by the context-link predictor
 * (Eq. 6), the in-place split of a parallel sort, and the Rng
 * determinism guarantees.
 */

#include <algorithm>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

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

TEST(Histogram, ConcurrentAddsEqualSerialCounts)
{
    // Every thread adds a disjoint share of the samples into the same
    // histograms; the counts must equal one thread adding them all.
    constexpr std::size_t threads = 4, per_thread = 3000, dim = 5;
    std::vector<Vector> samples;
    Rng rng(21);
    for (std::size_t i = 0; i < threads * per_thread; ++i) {
        Vector v(dim);
        for (std::size_t e = 0; e < dim; ++e)
            v[e] = rng.uniform(-1.2f, 1.2f);
        samples.push_back(std::move(v));
    }

    VectorDistribution serial(dim, -1.0, 1.0, 16);
    for (const Vector &v : samples)
        serial.observe(v);

    VectorDistribution shared(dim, -1.0, 1.0, 16);
    {
        std::vector<std::jthread> pool;
        for (std::size_t t = 0; t < threads; ++t)
            pool.emplace_back([&, t] {
                for (std::size_t i = t; i < samples.size(); i += threads)
                    shared.observe(samples[i]);
            });
    }
    EXPECT_EQ(shared.samples(), serial.samples());
    for (std::size_t e = 0; e < dim; ++e) {
        const Histogram &got = shared.element(e), &want = serial.element(e);
        EXPECT_EQ(got.samples(), want.samples()) << "element " << e;
        for (std::size_t b = 0; b < want.bins(); ++b)
            EXPECT_EQ(got.binCount(b), want.binCount(b))
                << "element " << e << ", bin " << b;
    }
}

/** cutForSort, then every part sorted on its own thread. */
std::vector<float>
sortInParts(std::vector<float> xs, std::size_t parts)
{
    const std::vector<std::size_t> bounds = cutForSort(xs, parts);
    EXPECT_EQ(bounds.size(), std::max<std::size_t>(parts, 1) + 1);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), xs.size());
    {
        std::vector<std::jthread> pool;
        for (std::size_t k = 0; k + 1 < bounds.size(); ++k)
            pool.emplace_back([&, k] {
                std::sort(xs.begin() + bounds[k], xs.begin() + bounds[k + 1]);
            });
    }
    return xs;
}

TEST(Histogram, CutForSortThenPartSortsEqualsStdSort)
{
    const float denorm = std::numeric_limits<float>::denorm_min();
    Rng rng(22);
    std::vector<float> mixed;
    for (int i = 0; i < 997; ++i) {
        const float pick[] = {0.0f, 1.0f, denorm, 3 * denorm,
                              rng.uniform(0.0f, 1.0f)};
        mixed.push_back(pick[rng.integer(0, 4)]);
    }
    const std::vector<std::vector<float>> cases = {
        {},                                       // n = 0
        {0.5f},                                   // n below the parts
        {1.0f, 0.0f, denorm},                     // n below the parts
        std::vector<float>(101, 0.25f),           // all equal
        std::vector<float>(64, 0.0f),             // all +0
        std::vector<float>(64, 1.0f),             // all 1
        mixed,
    };
    for (const std::size_t parts : {std::size_t{0}, std::size_t{1},
                                    std::size_t{2}, std::size_t{4},
                                    std::size_t{7}}) {
        for (std::size_t c = 0; c < cases.size(); ++c) {
            std::vector<float> want = cases[c];
            std::sort(want.begin(), want.end());
            const std::vector<float> got = sortInParts(cases[c], parts);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_TRUE(got.empty() ||
                        std::memcmp(got.data(), want.data(),
                                    got.size() * sizeof(float)) == 0)
                << "case " << c << ", " << parts << " parts";
        }
    }
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
