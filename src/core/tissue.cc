#include "core/tissue.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace mflstm {
namespace core {

std::vector<std::size_t>
formTissues(const std::vector<std::size_t> &sub_layer_lengths)
{
    if (sub_layer_lengths.empty())
        return {};

    const std::size_t longest =
        *std::max_element(sub_layer_lengths.begin(),
                          sub_layer_lengths.end());
    std::vector<std::size_t> tissues(longest, 0);
    for (std::size_t len : sub_layer_lengths) {
        for (std::size_t j = 0; j < len; ++j)
            ++tissues[j];
    }
    return tissues;
}

std::vector<std::size_t>
alignTissues(const std::vector<std::size_t> &sub_layer_lengths,
             std::size_t mts)
{
    if (mts == 0)
        throw std::invalid_argument("alignTissues: mts must be > 0");
    if (sub_layer_lengths.empty())
        return {};

    const std::size_t total =
        std::accumulate(sub_layer_lengths.begin(), sub_layer_lengths.end(),
                        std::size_t{0});
    const std::size_t longest =
        *std::max_element(sub_layer_lengths.begin(),
                          sub_layer_lengths.end());
    const std::size_t n_tissues = std::max(
        longest,
        static_cast<std::size_t>(std::ceil(
            static_cast<double>(total) / static_cast<double>(mts))));

    // Longest-remaining-first: each tissue takes one cell from the
    // sub-layers with the most unscheduled cells, up to mts cells. A
    // sub-layer with remaining == remaining tissue slots *must* be
    // served every round, which longest-first guarantees.
    std::vector<std::size_t> remaining = sub_layer_lengths;
    std::vector<std::size_t> tissues;
    tissues.reserve(n_tissues);

    for (std::size_t t = 0; t < n_tissues; ++t) {
        std::vector<std::size_t> order(remaining.size());
        std::iota(order.begin(), order.end(), 0);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return remaining[a] > remaining[b];
                         });

        std::size_t size = 0;
        for (std::size_t idx : order) {
            if (size == mts)
                break;
            if (remaining[idx] > 0) {
                --remaining[idx];
                ++size;
            }
        }
        if (size > 0)
            tissues.push_back(size);
    }

    // All cells must have been scheduled; the bound on n_tissues makes
    // this impossible to violate, so treat a leftover as a logic error.
    const std::size_t scheduled =
        std::accumulate(tissues.begin(), tissues.end(), std::size_t{0});
    if (scheduled != total)
        throw std::logic_error("alignTissues: schedule incomplete");
    return tissues;
}

MtsResult
findMts(const runtime::NetworkExecutor &executor,
        const runtime::LstmLayerShape &layer, std::size_t max_k,
        double skip_fraction)
{
    if (max_k == 0)
        throw std::invalid_argument("findMts: max_k must be > 0");

    MtsResult res;
    double best = 0.0;
    for (std::size_t k = 1; k <= std::min(max_k, layer.length); ++k) {
        std::vector<std::size_t> sizes;
        for (std::size_t left = layer.length; left > 0;) {
            const std::size_t t = std::min(k, left);
            sizes.push_back(t);
            left -= t;
        }
        // The probe keeps its preset label, so the executor's
        // lower:/simulate: spans name the swept scheme.
        const runtime::ExecutionPlan plan = runtime::ExecutionPlan::preset(
            skip_fraction > 0.0 ? runtime::PlanKind::Combined
                                : runtime::PlanKind::InterCell,
            1, quant::QuantMode::Fp32, {sizes}, {skip_fraction});

        const runtime::RunReport report =
            executor.runLayer(layer, plan, 0);
        res.timesUs.push_back(report.result.timeUs);
        res.sharedUtilization.push_back(
            report.result.sharedUtilization);

        if (res.timesUs.size() == 1 || report.result.timeUs < best) {
            best = report.result.timeUs;
            res.mts = k;
        }
    }
    return res;
}

} // namespace core
} // namespace mflstm
