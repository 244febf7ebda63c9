#include "runtime/plan.hh"

#include <algorithm>
#include <stdexcept>

namespace mflstm {
namespace runtime {

const char *
toString(PlanKind kind)
{
    switch (kind) {
      case PlanKind::Baseline:
        return "baseline";
      case PlanKind::InterCell:
        return "inter-cell";
      case PlanKind::IntraCellSw:
        return "intra-cell-sw";
      case PlanKind::IntraCellHw:
        return "intra-cell-hw";
      case PlanKind::Combined:
        return "combined";
      case PlanKind::ZeroPruning:
        return "zero-pruning";
      case PlanKind::Tuned:
        return "tuned";
      case PlanKind::Persistent:
        return "persistent";
    }
    return "unknown";
}

std::optional<PlanKind>
planKindFromString(const std::string &s)
{
    if (s == "baseline")
        return PlanKind::Baseline;
    if (s == "inter-cell" || s == "inter")
        return PlanKind::InterCell;
    if (s == "intra-cell-sw" || s == "intra-sw")
        return PlanKind::IntraCellSw;
    if (s == "intra-cell-hw" || s == "intra-hw")
        return PlanKind::IntraCellHw;
    if (s == "combined")
        return PlanKind::Combined;
    if (s == "zero-pruning")
        return PlanKind::ZeroPruning;
    if (s == "tuned")
        return PlanKind::Tuned;
    if (s == "persistent")
        return PlanKind::Persistent;
    return std::nullopt;
}

NetworkShape
NetworkShape::stacked(std::size_t embed_size, std::size_t hidden_size,
                      std::size_t num_layers, std::size_t length)
{
    if (!embed_size || !hidden_size || !num_layers || !length)
        throw std::invalid_argument("NetworkShape: zero dimension");

    NetworkShape shape;
    shape.layers.reserve(num_layers);
    for (std::size_t l = 0; l < num_layers; ++l) {
        shape.layers.push_back({l == 0 ? embed_size : hidden_size,
                                hidden_size, length});
    }
    return shape;
}

LayerSchedule
ExecutionPlan::layerSchedule(std::size_t layer_index) const
{
    if (layer_index < decisions.layers.size())
        return decisions.layers[layer_index];
    return {};
}

bool
ExecutionPlan::usesCrmHardware() const
{
    return std::any_of(decisions.layers.begin(), decisions.layers.end(),
                       [](const LayerSchedule &l) {
                           return l.skipPath == SkipPath::HwCrm;
                       });
}

ExecutionPlan
ExecutionPlan::fromDecisions(ScheduleDecisions d)
{
    d.validate();

    ExecutionPlan plan;
    plan.kind = PlanKind::Tuned;
    plan.decisions = std::move(d);
    return plan;
}

bool
presetUsesTissues(PlanKind kind)
{
    return kind == PlanKind::InterCell || kind == PlanKind::Combined ||
           kind == PlanKind::Persistent;
}

bool
presetUsesSkip(PlanKind kind)
{
    return kind == PlanKind::IntraCellSw ||
           kind == PlanKind::IntraCellHw || kind == PlanKind::Combined;
}

ExecutionPlan
ExecutionPlan::preset(PlanKind kind, std::size_t num_layers,
                      quant::QuantMode quant,
                      const std::vector<std::vector<std::size_t>>
                          &tissue_sizes,
                      const std::vector<double> &skip_fractions,
                      double prune_fraction)
{
    const bool crm =
        kind == PlanKind::IntraCellHw || kind == PlanKind::Combined;

    ExecutionPlan plan;
    plan.kind = kind;
    plan.decisions.layers.reserve(num_layers);
    for (std::size_t l = 0; l < num_layers; ++l) {
        LayerSchedule &ls = plan.decisions.layers.emplace_back();
        if (kind == PlanKind::ZeroPruning) {
            // The CSR comparator is defined on fp32 weights.
            ls.prunedCsr = true;
            ls.pruneFraction = prune_fraction;
            continue;
        }
        ls.quant = quant;
        if (presetUsesTissues(kind) && l < tissue_sizes.size())
            ls.tissueSizes = tissue_sizes[l];
        if (kind == PlanKind::Persistent) {
            // The persistent preset targets the fast tier the
            // persistent-RNN literature uses; the tuner also searches
            // the shared tier.
            ls.residency = WeightResidency::Regfile;
            continue;
        }
        if (presetUsesSkip(kind) && l < skip_fractions.size()) {
            ls.skipFraction = skip_fractions[l];
            ls.skipPath = crm ? SkipPath::HwCrm : SkipPath::Software;
            ls.flagFusion = crm ? FlagFusion::FusedEpilogue
                                : FlagFusion::Standalone;
        }
    }
    return plan;
}

} // namespace runtime
} // namespace mflstm
