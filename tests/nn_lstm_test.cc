/**
 * @file
 * Tests for the LSTM cell/layer forward pass (Eq. 1-5) and the cuDNN-style
 * per-layer input projection of Section II-C.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "nn/lstm.hh"
#include "support/reference.hh"
#include "tensor/activations.hh"
#include "tensor/ops.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;
using namespace mflstm::nn;

LstmLayerParams
makeParams(std::size_t in, std::size_t hid, std::uint64_t seed)
{
    LstmLayerParams p(in, hid);
    tensor::Rng rng(seed);
    p.init(rng);
    return p;
}

TEST(LstmParams, ShapesAndForgetBias)
{
    const LstmLayerParams p = makeParams(3, 5, 1);
    EXPECT_EQ(p.inputSize(), 3u);
    EXPECT_EQ(p.hiddenSize(), 5u);
    EXPECT_EQ(p.uf.rows(), 5u);
    EXPECT_EQ(p.uf.cols(), 5u);
    for (std::size_t j = 0; j < 5; ++j) {
        EXPECT_FLOAT_EQ(p.bf[j], 1.0f);
        EXPECT_FLOAT_EQ(p.bi[j], 0.0f);
    }
}

TEST(LstmCell, ScalarCaseMatchesHandComputation)
{
    // One-unit cell with all weights fixed so Eq. 1-5 can be evaluated by
    // hand.
    LstmLayerParams p(1, 1);
    p.wf(0, 0) = 0.5f;
    p.wi(0, 0) = 0.4f;
    p.wc(0, 0) = 0.3f;
    p.wo(0, 0) = 0.2f;
    p.uf(0, 0) = 0.1f;
    p.ui(0, 0) = -0.1f;
    p.uc(0, 0) = 0.2f;
    p.uo(0, 0) = -0.2f;
    p.bf[0] = 0.05f;
    p.bi[0] = -0.05f;
    p.bc[0] = 0.0f;
    p.bo[0] = 0.1f;

    LstmState prev(1);
    prev.h[0] = 0.3f;
    prev.c[0] = -0.4f;
    const float x = 0.7f;

    tensor::Vector x_proj(4);
    x_proj[0] = p.wf(0, 0) * x;
    x_proj[1] = p.wi(0, 0) * x;
    x_proj[2] = p.wc(0, 0) * x;
    x_proj[3] = p.wo(0, 0) * x;

    LstmState next = prev;
    LstmStepScratch scratch;
    lstmCellForward(PackedRecurrent(p), x_proj.span(), next, scratch);

    const float f = tensor::sigmoid(0.5f * x + 0.1f * 0.3f + 0.05f);
    const float i = tensor::sigmoid(0.4f * x - 0.1f * 0.3f - 0.05f);
    const float g = std::tanh(0.3f * x + 0.2f * 0.3f);
    const float o = tensor::sigmoid(0.2f * x - 0.2f * 0.3f + 0.1f);
    const float c = f * -0.4f + i * g;
    const float h = o * std::tanh(c);

    EXPECT_NEAR(next.c[0], c, 1e-6f);
    EXPECT_NEAR(next.h[0], h, 1e-6f);
}

TEST(LstmCell, TraceCachesAllIntermediates)
{
    const LstmLayerParams p = makeParams(2, 3, 3);
    LstmState prev(3);
    prev.h[1] = 0.2f;

    tensor::Vector x_proj(12);
    for (std::size_t j = 0; j < 12; ++j)
        x_proj[j] = 0.1f * static_cast<float>(j);

    LstmCellTrace trace;
    LstmState next = prev;
    LstmStepScratch scratch;
    lstmCellForward(PackedRecurrent(p), x_proj.span(), next, scratch,
                    SigmoidKind::Logistic, {}, &trace);

    EXPECT_EQ(trace.f.size(), 3u);
    EXPECT_EQ(trace.h_prev, prev.h);
    EXPECT_EQ(trace.c_prev, prev.c);
    EXPECT_EQ(trace.h, next.h);
    EXPECT_EQ(trace.c, next.c);
    // Gates are sigmoid outputs: in (0, 1).
    for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_GT(trace.f[j], 0.0f);
        EXPECT_LT(trace.f[j], 1.0f);
        EXPECT_GT(trace.o[j], 0.0f);
        EXPECT_LT(trace.o[j], 1.0f);
    }
}

TEST(LstmCell, OutputBoundedByConstruction)
{
    // Section IV-A: h_t in [-1, 1] because it is o_t * tanh(c_t).
    const LstmLayerParams p = makeParams(4, 8, 4);
    tensor::Rng rng(5);

    const PackedRecurrent packed(p);
    LstmState state(8);
    LstmStepScratch scratch;
    for (int t = 0; t < 50; ++t) {
        tensor::Vector x_proj(32);
        for (std::size_t j = 0; j < 32; ++j)
            x_proj[j] = rng.uniform(-3.0f, 3.0f);
        lstmCellForward(packed, x_proj.span(), state, scratch);
        for (std::size_t j = 0; j < 8; ++j) {
            EXPECT_GE(state.h[j], -1.0f);
            EXPECT_LE(state.h[j], 1.0f);
        }
    }
}

TEST(LstmLayer, ProjectInputsMatchesUnitedGemv)
{
    const LstmLayerParams p = makeParams(3, 4, 6);
    std::vector<tensor::Vector> xs;
    tensor::Rng rng(7);
    for (int t = 0; t < 3; ++t) {
        tensor::Vector x(3);
        for (std::size_t j = 0; j < 3; ++j)
            x[j] = rng.uniform(-1.0f, 1.0f);
        xs.push_back(x);
    }

    const tensor::Matrix projs = projectInputs(p, xs);
    ASSERT_EQ(projs.rows(), 3u);
    ASSERT_EQ(projs.cols(), 16u);

    const tensor::Matrix w = test::vconcat({&p.wf, &p.wi, &p.wc, &p.wo});
    for (std::size_t t = 0; t < 3; ++t) {
        tensor::Vector expect;
        tensor::gemv(w, xs[t], expect);
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                               projs.row(t).begin()));
    }
}

TEST(LstmLayer, ForwardIsDeterministic)
{
    const LstmLayerParams p = makeParams(2, 4, 8);
    std::vector<tensor::Vector> xs(5, tensor::Vector(2, 0.3f));

    const auto a = lstmLayerForward(p, xs);
    const auto b = lstmLayerForward(p, xs);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t)
        EXPECT_EQ(a[t], b[t]);
}

TEST(LstmLayer, TracesOnePerTimestep)
{
    const LstmLayerParams p = makeParams(2, 4, 9);
    std::vector<tensor::Vector> xs(6, tensor::Vector(2, 0.1f));

    std::vector<LstmCellTrace> traces;
    const auto outs = lstmLayerForward(p, xs, SigmoidKind::Logistic,
                                       &traces);
    ASSERT_EQ(traces.size(), 6u);
    for (std::size_t t = 0; t < 6; ++t)
        EXPECT_EQ(traces[t].h, outs[t]);
    // Context link chain: h_prev of step t+1 equals h of step t.
    for (std::size_t t = 1; t < 6; ++t)
        EXPECT_EQ(traces[t].h_prev, traces[t - 1].h);
}

TEST(LstmLayer, HardSigmoidVariantDiffersButBounded)
{
    const LstmLayerParams p = makeParams(2, 4, 10);
    std::vector<tensor::Vector> xs(4, tensor::Vector(2, 0.5f));

    const auto logistic = lstmLayerForward(p, xs, SigmoidKind::Logistic);
    const auto hard = lstmLayerForward(p, xs, SigmoidKind::Hard);

    bool any_diff = false;
    for (std::size_t t = 0; t < 4; ++t) {
        for (std::size_t j = 0; j < 4; ++j) {
            any_diff |= logistic[t][j] != hard[t][j];
            EXPECT_GE(hard[t][j], -1.0f);
            EXPECT_LE(hard[t][j], 1.0f);
        }
    }
    EXPECT_TRUE(any_diff);
}

TEST(LstmLayer, EmptySequenceYieldsEmptyOutput)
{
    const LstmLayerParams p = makeParams(2, 4, 11);
    const auto outs = lstmLayerForward(p, {});
    EXPECT_TRUE(outs.empty());
}

} // namespace
