/**
 * @file
 * Tests for the relevance value (Algorithm 2).
 */

#include <gtest/gtest.h>

#include "core/relevance.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;
using namespace mflstm::core;

nn::LstmLayerParams
params(std::size_t in, std::size_t hid, std::uint64_t seed)
{
    nn::LstmLayerParams p(in, hid);
    tensor::Rng rng(seed);
    p.init(rng);
    return p;
}

TEST(RelevanceContext, RowAbsSumsMatchDefinition)
{
    nn::LstmLayerParams p(1, 2);
    p.uf(0, 0) = 1.0f;
    p.uf(0, 1) = -2.0f;
    p.uf(1, 0) = 0.5f;

    const LayerRelevanceContext ctx(p);
    EXPECT_FLOAT_EQ(ctx.df[0], 3.0f);
    EXPECT_FLOAT_EQ(ctx.df[1], 0.5f);
}

TEST(Relevance, ZeroWhenAllGatesPinned)
{
    // Tiny recurrent reach (D ~ 0) and input projections deep in the
    // insensitive area: the link carries no information, S = 0.
    nn::LstmLayerParams p(1, 4);  // all-zero weights -> D = 0
    const LayerRelevanceContext ctx(p);

    Vector x_proj(16);
    for (std::size_t j = 0; j < 4; ++j) {
        x_proj[j] = 10.0f;       // forget gate pinned... S_f = 4 though
        x_proj[4 + j] = 10.0f;   // input gate pinned
        x_proj[8 + j] = 10.0f;   // candidate pinned
        x_proj[12 + j] = 10.0f;  // output gate pinned
    }
    // With D = 0 and |m| far above 2, s_ico = min(4, 2 + 0 - |m|...) < 0
    // clamps the product to zero.
    EXPECT_DOUBLE_EQ(ctx.relevance(p, x_proj), 0.0);
}

TEST(Relevance, MaximalWhenEverythingSensitive)
{
    // Large D keeps every gate's possible range covering the whole
    // sensitive area: each element contributes s_o*(s_f + s_i*s_c) =
    // 2*(4+4) = 16.
    nn::LstmLayerParams p(1, 3);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c) {
            p.uf(r, c) = 3.0f;
            p.ui(r, c) = 3.0f;
            p.uc(r, c) = 3.0f;
            p.uo(r, c) = 3.0f;
        }
    p.bf.zero();  // cancel the forget-bias offset for exactness

    const LayerRelevanceContext ctx(p);
    const Vector x_proj(12);  // zero inputs
    EXPECT_DOUBLE_EQ(ctx.relevance(p, x_proj), 3.0 * 16.0);
}

TEST(Relevance, MonotoneInInputSaturation)
{
    // Pushing the input projections deeper into saturation can only
    // weaken the link.
    const nn::LstmLayerParams p = params(4, 8, 3);
    const LayerRelevanceContext ctx(p);

    Vector weak_proj(32), strong_proj(32);
    for (std::size_t j = 0; j < 32; ++j) {
        weak_proj[j] = 0.1f;
        strong_proj[j] = 8.0f;
    }
    EXPECT_GT(ctx.relevance(p, weak_proj),
              ctx.relevance(p, strong_proj));
}

TEST(Relevance, RejectsWrongProjectionSize)
{
    const nn::LstmLayerParams p = params(2, 4, 5);
    const LayerRelevanceContext ctx(p);
    EXPECT_THROW(ctx.relevance(p, Vector(8)), std::invalid_argument);
}

} // namespace
