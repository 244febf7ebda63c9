#include "runtime/pruning.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace mflstm {
namespace runtime {

double
pruneBelow(tensor::Matrix &m, double threshold)
{
    if (m.empty())
        return 0.0;
    std::size_t pruned = 0;
    for (std::size_t i = 0; i < m.size(); ++i) {
        if (std::fabs(m.data()[i]) < threshold) {
            m.data()[i] = 0.0f;
            ++pruned;
        }
    }
    return static_cast<double>(pruned) / static_cast<double>(m.size());
}

PruningResult
applyZeroPruning(nn::LstmModel &model, double target_fraction)
{
    if (target_fraction < 0.0 || target_fraction > 1.0)
        throw std::invalid_argument("applyZeroPruning: bad fraction");

    // Pool all recurrent magnitudes for a single global threshold, as
    // deep-compression-style pruning does.
    std::vector<float> mags;
    for (const nn::LstmLayerParams &p : model.layers()) {
        for (const tensor::Matrix *u : {&p.uf, &p.ui, &p.uc, &p.uo}) {
            for (std::size_t i = 0; i < u->size(); ++i)
                mags.push_back(std::fabs(u->data()[i]));
        }
    }
    if (mags.empty())
        return {};

    const auto k = static_cast<std::size_t>(
        target_fraction * static_cast<double>(mags.size()));
    PruningResult res;
    if (target_fraction == 1.0) {
        // pruneBelow compares strictly, so the absmax would survive any
        // threshold drawn from the data; step just past it instead.
        const float absmax = *std::max_element(mags.begin(), mags.end());
        res.threshold = std::nextafter(
            absmax, std::numeric_limits<float>::infinity());
    } else if (k > 0) {
        const std::size_t idx = std::min(k, mags.size() - 1);
        std::nth_element(mags.begin(), mags.begin() + idx, mags.end());
        res.threshold = mags[idx];
    }

    std::size_t pruned = 0;
    std::size_t total = 0;
    for (nn::LstmLayerParams &p : model.layers()) {
        for (tensor::Matrix *u : {&p.uf, &p.ui, &p.uc, &p.uo}) {
            total += u->size();
            pruned += static_cast<std::size_t>(
                pruneBelow(*u, res.threshold) *
                static_cast<double>(u->size()) + 0.5);
        }
    }
    res.prunedFraction =
        total ? static_cast<double>(pruned) / static_cast<double>(total)
              : 0.0;
    res.compressionRatio = res.prunedFraction;
    // CSR storage: surviving values at 1.5x (value + column index).
    // Guard the division — a threshold above every magnitude leaves
    // zero survivors, and 0.0 is the defined degenerate answer.
    const std::size_t surviving = total - pruned;
    res.csrStorageRatio =
        surviving ? static_cast<double>(total) * 4.0 /
                        (static_cast<double>(surviving) * 4.0 * 1.5)
                  : 0.0;
    return res;
}

} // namespace runtime
} // namespace mflstm
