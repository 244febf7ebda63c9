#include "core/planner.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/tissue.hh"

namespace mflstm {
namespace core {

std::vector<std::size_t>
evenSubLayers(std::size_t length, std::size_t parts)
{
    if (length == 0)
        return {};
    parts = std::clamp<std::size_t>(parts, 1, length);

    std::vector<std::size_t> lens(parts, length / parts);
    for (std::size_t i = 0; i < length % parts; ++i)
        ++lens[i];
    return lens;
}

runtime::ExecutionPlan
buildPlan(runtime::PlanKind kind,
          const std::vector<LayerApproxStats> &stats,
          const runtime::NetworkShape &shape, std::size_t mts,
          std::size_t model_hidden, quant::QuantMode quant)
{
    if (stats.size() != shape.layers.size())
        throw std::invalid_argument("buildPlan: stats/shape mismatch");
    if (model_hidden == 0)
        throw std::invalid_argument("buildPlan: zero model hidden");

    std::vector<std::vector<std::size_t>> tissues;
    std::vector<double> skips;
    for (std::size_t l = 0; l < shape.layers.size(); ++l) {
        const std::size_t n = shape.layers[l].length;

        if (runtime::presetUsesTissues(kind)) {
            // Projected sub-layer count: the measured break rate applied
            // to this layer's (timing-shape) link count.
            const double rate = stats[l].breakRate();
            const auto parts = static_cast<std::size_t>(
                std::round(rate * static_cast<double>(n - 1))) + 1;
            tissues.push_back(alignTissues(evenSubLayers(n, parts), mts));
        }

        if (runtime::presetUsesSkip(kind))
            skips.push_back(stats[l].skipFraction(model_hidden));
    }
    return runtime::ExecutionPlan::preset(kind, shape.layers.size(), quant,
                                          tissues, skips);
}

std::size_t
presetMts(const runtime::NetworkExecutor &exec, runtime::PlanKind kind,
          const std::vector<LayerApproxStats> &stats,
          const runtime::LstmLayerShape &layer, std::size_t mts,
          std::size_t model_hidden)
{
    if (kind != runtime::PlanKind::Combined || stats.empty())
        return mts;
    double skip = 0.0;
    for (const LayerApproxStats &st : stats)
        skip += st.skipFraction(model_hidden);
    skip /= static_cast<double>(stats.size());
    return skip > 0.0 ? findMts(exec, layer, 12, skip).mts : mts;
}

} // namespace core
} // namespace mflstm
