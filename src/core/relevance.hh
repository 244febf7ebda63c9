/**
 * @file
 * Relevance value computation (Section IV-B, Algorithm 2) and breakpoint
 * search. The relevance value S quantifies how much the previous cell's
 * output h_{t-1} can influence the current cell's gates: per hidden
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

#include <cstddef>
#include <vector>

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
                     const Vector &x_proj) const;

    Vector df, di, dc, dout;
};

/**
 * Relevance of each context link in a layer: element t (t >= 1) is S for
 * the link from cell t-1 into cell t. Element 0 is set to +infinity
 * (there is no link into the first cell to break).
 */
std::vector<double>
layerLinkRelevances(const nn::LstmLayerParams &params,
                    const std::vector<Vector> &x_projs);

/**
 * Breakpoint search: indices t whose incoming link has S < alpha_inter.
 * Breaking at t makes cell t the first cell of a new sub-layer.
 */
std::vector<std::size_t>
findBreakpoints(const std::vector<double> &relevances, double alpha_inter);

/**
 * Sub-layer lengths induced by a breakpoint set over @p length cells
 * (Fig. 8(a1)). Sums to @p length; one entry when there are no breaks.
 */
std::vector<std::size_t>
subLayerLengths(std::size_t length,
                const std::vector<std::size_t> &breakpoints);

} // namespace core
} // namespace mflstm

#endif // MFLSTM_CORE_RELEVANCE_HH
