/**
 * @file
 * Tests for the activation functions and their shared sensitive-area
 * boundary (Section IV-A, Fig. 7) that the relevance computation uses,
 * and for tensor::tanh, the four-lane port of glibc's tanhf, against
 * std::tanh bit for bit: around every branch cut, on the special values,
 * over a stride through all 2^32 bit patterns and on every lane tail.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/activations.hh"

namespace {

using namespace mflstm::tensor;

TEST(Sigmoid, KnownValues)
{
    EXPECT_FLOAT_EQ(sigmoid(0.0f), 0.5f);
    EXPECT_NEAR(sigmoid(2.0f), 0.8808f, 1e-3f);
    EXPECT_NEAR(sigmoid(-2.0f), 0.1192f, 1e-3f);
}

TEST(Sigmoid, SaturatesOutsideSensitiveArea)
{
    // The paper's premise: beyond +-2 the output is effectively constant.
    EXPECT_GT(sigmoid(6.0f), 0.99f);
    EXPECT_LT(sigmoid(-6.0f), 0.01f);
}

TEST(HardSigmoid, PiecewiseLinearShape)
{
    EXPECT_FLOAT_EQ(hardSigmoid(0.0f), 0.5f);
    EXPECT_FLOAT_EQ(hardSigmoid(2.0f), 1.0f);
    EXPECT_FLOAT_EQ(hardSigmoid(-2.0f), 0.0f);
    EXPECT_FLOAT_EQ(hardSigmoid(10.0f), 1.0f);
    EXPECT_FLOAT_EQ(hardSigmoid(1.0f), 0.75f);
}

TEST(HardSigmoid, SharesSensitiveBoundaryWithLogistic)
{
    // Fig. 7: the same [-2, 2] boundary fits both variants.
    EXPECT_FLOAT_EQ(hardSigmoid(kSensitiveBound), 1.0f);
    EXPECT_FLOAT_EQ(hardSigmoid(-kSensitiveBound), 0.0f);
}

TEST(Gradients, FromOutputMatchAnalytic)
{
    const float s = sigmoid(0.7f);
    EXPECT_NEAR(sigmoidGradFromOutput(s), s * (1 - s), 1e-6f);

    const float t = std::tanh(0.3f);
    EXPECT_NEAR(tanhGradFromOutput(t), 1 - t * t, 1e-6f);
}

float
fromBits(std::uint32_t u)
{
    return std::bit_cast<float>(u);
}

/**
 * Runs tensor::tanh over @p xs and counts the elements whose bits differ
 * from std::tanh's (a NaN matches any NaN), printing the first few.
 */
std::size_t
mismatches(const std::vector<float> &xs)
{
    std::vector<float> got(xs.size());
    tanh(xs, got);
    std::size_t bad = 0;
    for (std::size_t j = 0; j < xs.size(); ++j) {
        const float want = std::tanh(xs[j]);
        const bool same =
            std::bit_cast<std::uint32_t>(got[j]) ==
                std::bit_cast<std::uint32_t>(want) ||
            (std::isnan(got[j]) && std::isnan(want));
        if (!same && bad++ < 5)
            ADD_FAILURE() << std::hexfloat << "tanh(" << xs[j] << ") = "
                          << got[j] << ", std::tanh " << want;
    }
    return bad;
}

/** Both signs of the 9 floats centred on the bit pattern @p cut. */
void
addAround(std::vector<float> &xs, std::uint32_t cut)
{
    for (std::uint32_t u = cut - 4; u <= cut + 4; ++u) {
        xs.push_back(fromBits(u));
        xs.push_back(-fromBits(u));
    }
}

/**
 * The smallest |x| whose expm1 argument 2|x| reduces with k >= @p k:
 * k = (int)(2|x| / ln2 + 0.5) in the port's float arithmetic, which
 * never falls as |x| grows, so a bisection over bit patterns finds it.
 */
std::uint32_t
firstWithK(int k)
{
    const float invln2 = fromBits(0x3fb8aa3b);
    std::uint32_t lo = 0x3f800000, hi = 0x41b00000;  // 1 and 22
    while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (static_cast<int>(invln2 * (2.0f * fromBits(mid)) + 0.5f) >= k)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

TEST(Tanh, BranchCutsMatchLibm)
{
    std::vector<float> xs;
    addAround(xs, 0x24000000);  // 2^-55: x * (1 + x) below
    addAround(xs, 0x32800000);  // 2^-26: expm1 returns its argument below
    addAround(xs, 0x3e317218);  // 0.5 ln2 / 2: expm1 starts reducing
    addAround(xs, 0x3f051592);  // 1.5 ln2 / 2: expm1's k = -1 band ends
    addAround(xs, 0x3f800000);  // 1: expm1(2|x|) instead of expm1(-2|x|)
    addAround(xs, firstWithK(23));  // expm1's 2^-k term moves
    addAround(xs, firstWithK(57));  // expm1 scales 1 + r alone
    addAround(xs, 0x41b00000);  // 22: +-1 from here
    EXPECT_EQ(mismatches(xs), 0u);
}

TEST(Tanh, SpecialValuesMatchLibm)
{
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> xs = {0.0f,
                             -0.0f,
                             inf,
                             -inf,
                             std::numeric_limits<float>::quiet_NaN(),
                             -std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::max(),
                             -std::numeric_limits<float>::max(),
                             std::numeric_limits<float>::min()};
    for (std::uint32_t u : {0x1u, 0x2u, 0x1234u, 0x7fffffu})  // denormals
        for (float x : {fromBits(u), -fromBits(u)})
            xs.push_back(x);
    EXPECT_EQ(mismatches(xs), 0u);

    std::vector<float> got(xs.size());
    tanh(xs, got);
    EXPECT_TRUE(std::signbit(got[1]));  // tanh(-0) = -0
    EXPECT_EQ(got[2], 1.0f);
    EXPECT_EQ(got[3], -1.0f);
    EXPECT_TRUE(std::isnan(got[4]));
}

TEST(Tanh, StrideThroughAllBitPatternsMatchesLibm)
{
    // 2^32 / 4093 ~ one million patterns, every exponent and both signs.
    std::vector<float> xs;
    for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4093)
        xs.push_back(fromBits(static_cast<std::uint32_t>(u)));
    EXPECT_EQ(mismatches(xs), 0u);
}

TEST(Tanh, EveryLaneTailAndInPlace)
{
    const float kGuard = 7.0f;
    for (std::size_t n = 0; n <= 7; ++n) {
        std::vector<float> in(n);
        for (std::size_t j = 0; j < n; ++j)
            in[j] = 0.37f * static_cast<float>(j) - 1.1f;
        EXPECT_EQ(mismatches(in), 0u) << n;

        // Out of place into a longer buffer: nothing past n is written.
        std::vector<float> out(n + 4, kGuard);
        tanh(in, std::span(out).first(n));
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_EQ(out[j], std::tanh(in[j])) << n;
        for (std::size_t j = n; j < n + 4; ++j)
            EXPECT_EQ(out[j], kGuard) << n;

        std::vector<float> same = in;
        tanh(same, same);
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_EQ(same[j], std::tanh(in[j])) << n;
    }
}

} // namespace
