/**
 * @file
 * Tests for the activation functions and their shared sensitive-area
 * boundary (Section IV-A, Fig. 7) that the relevance computation uses.
 */

#include <cmath>

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

} // namespace
