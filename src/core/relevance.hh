/**
 * @file
 * Relevance value computation (Section IV-B, Algorithm 2). The
 * relevance value S quantifies how much the previous cell's output h_{t-1} can influence the current cell's gates: per hidden
 * element, the possible range of each gate's pre-activation
 * (W x_t + U h_{t-1} + b with h_{t-1} in [-1,1]) is intersected with the
 * activation functions' sensitive area [-2, 2]; the overlaps are combined
 * through the cell dataflow (S_o gating S_f + S_i * S_c) and summed over
 * elements. S = 0 means the context link is dead and can be broken for
 * free; links with S below the threshold alpha_inter are "weak" and
 * selected as breakpoints.
 */

#ifndef MFLSTM_CORE_RELEVANCE_HH
#define MFLSTM_CORE_RELEVANCE_HH

#include <span>

#include "nn/lstm.hh"
#include "tensor/matrix.hh"

namespace mflstm {
namespace core {

using tensor::Vector;

/**
 * Precomputed per-layer inputs of Algorithm 2 that depend only on the
 * weights: D_{f,i,c,o}[j] = sum_k |U_*[j][k]|, the half-width of the
 * possible contribution of h_{t-1} to gate pre-activation j. Computed
 * once per layer (offline; Algorithm 2 line 2).
 */
struct LayerRelevanceContext
{
    explicit LayerRelevanceContext(const nn::LstmLayerParams &params);

    /**
     * Relevance value S of the link feeding the cell whose input
     * projection is @p x_proj (the 4H vector W_{f,i,c,o} x_t, f/i/c/o
     * order, no bias). Algorithm 2 lines 3-8.
     */
    double relevance(const nn::LstmLayerParams &params,
                     std::span<const float> x_proj) const;

    Vector df, di, dc, dout;
};

} // namespace core
} // namespace mflstm

#endif // MFLSTM_CORE_RELEVANCE_HH
