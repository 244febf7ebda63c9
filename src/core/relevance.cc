#include "core/relevance.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "tensor/activations.hh"
#include "tensor/ops.hh"

namespace mflstm {
namespace core {

namespace {

/** Half-width of the sensitive area [-2, 2] (Fig. 7), exact in double. */
constexpr double kBound = tensor::kSensitiveBound;

} // namespace

LayerRelevanceContext::LayerRelevanceContext(
    const nn::LstmLayerParams &params)
    : df(tensor::rowAbsSums(params.uf)), di(tensor::rowAbsSums(params.ui)),
      dc(tensor::rowAbsSums(params.uc)), dout(tensor::rowAbsSums(params.uo))
{}

double
LayerRelevanceContext::relevance(const nn::LstmLayerParams &params,
                                 const Vector &x_proj) const
{
    const std::size_t dim = params.hiddenSize();
    if (x_proj.size() != 4 * dim)
        throw std::invalid_argument("relevance: bad x_proj size");

    // Algorithm 2 line 5, for gates whose both saturation ends are
    // "insensitive" (i, c, o): overlap of [m - D, m + D] with the
    // sensitive area via the two clipped terms of the paper's formula.
    auto s_ico = [](double m, double d) {
        const double a = kBound + std::min(kBound, std::fabs(m));
        const double b =
            std::min(kBound, kBound + d - std::max(kBound, std::fabs(m)));
        return std::min(a, b);
    };

    double s = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
        // Algorithm 2 line 4: forget gate. Saturating high (f -> 1)
        // preserves the cell state, so only the upper reach of the range
        // matters; S_f measures how far it extends into/through the
        // sensitive area.
        const double mf = x_proj[j] + params.bf[j];
        const double sf =
            std::min(2 * kBound, std::max(mf + df[j] + kBound, 0.0));

        const double si = s_ico(x_proj[dim + j] + params.bi[j], di[j]);
        const double sc = s_ico(x_proj[2 * dim + j] + params.bc[j], dc[j]);
        const double so =
            s_ico(x_proj[3 * dim + j] + params.bo[j], dout[j]);

        // Line 6: combine through the cell dataflow — the output gate
        // multiplies everything (Eq. 5), the forget path adds to the
        // input*candidate path (Eq. 3).
        const double sj = so * (sf + si * sc);
        s += std::max(0.0, sj);
    }
    return s;
}

std::vector<double>
layerLinkRelevances(const nn::LstmLayerParams &params,
                    const std::vector<Vector> &x_projs)
{
    LayerRelevanceContext ctx(params);
    std::vector<double> out(x_projs.size(),
                            std::numeric_limits<double>::infinity());
    // Link t-1 -> t is judged by how cell t *uses* h_{t-1}: evaluate
    // Algorithm 2 with cell t's input projection.
    for (std::size_t t = 1; t < x_projs.size(); ++t)
        out[t] = ctx.relevance(params, x_projs[t]);
    return out;
}

std::vector<std::size_t>
findBreakpoints(const std::vector<double> &relevances, double alpha_inter)
{
    std::vector<std::size_t> breaks;
    for (std::size_t t = 1; t < relevances.size(); ++t) {
        if (relevances[t] < alpha_inter)
            breaks.push_back(t);
    }
    return breaks;
}

std::vector<std::size_t>
subLayerLengths(std::size_t length,
                const std::vector<std::size_t> &breakpoints)
{
    if (length == 0)
        return {};

    std::vector<std::size_t> lens;
    std::size_t start = 0;
    for (std::size_t b : breakpoints) {
        if (b == 0 || b >= length)
            throw std::out_of_range("subLayerLengths: breakpoint range");
        if (b <= start)
            throw std::invalid_argument(
                "subLayerLengths: breakpoints must be increasing");
        lens.push_back(b - start);
        start = b;
    }
    lens.push_back(length - start);
    return lens;
}

} // namespace core
} // namespace mflstm
