#include "sched/space.hh"

#include <algorithm>
#include <stdexcept>

#include "gpu/sm.hh"
#include "quant/qformat.hh"

namespace mflstm {
namespace sched {

namespace {

/**
 * DRAM footprint of one layer's recurrent U block at @p qm: the codes
 * plus, when quantized, the per-row fp32 scale stream (same accounting
 * as the lowering's weightFootprintBytes).
 */
double
layerUFootprintBytes(const runtime::LstmLayerShape &layer,
                     quant::QuantMode qm)
{
    const double h = static_cast<double>(layer.hiddenSize);
    const double elems = 4.0 * h * h;
    const double scale_bytes =
        qm == quant::QuantMode::Fp32 ? 0.0 : 4.0 * h * 4.0;
    return elems * quant::bytesPerWeight(qm) + scale_bytes;
}

} // anonymous namespace

void
TuneRequest::validate() const
{
    if (shape.layers.empty())
        throw std::invalid_argument("TuneRequest: empty network shape");
    if (stats.size() != shape.layers.size())
        throw std::invalid_argument(
            "TuneRequest: stats/layer count mismatch");
    if (!modelHidden)
        throw std::invalid_argument("TuneRequest: zero modelHidden");
    if (!mts)
        throw std::invalid_argument("TuneRequest: zero mts");
    if (!batch)
        throw std::invalid_argument("TuneRequest: zero batch");
    if (!maxLayerCandidates)
        throw std::invalid_argument(
            "TuneRequest: zero maxLayerCandidates");
    if (pruneFraction < 0.0 || pruneFraction > 1.0)
        throw std::invalid_argument(
            "TuneRequest: pruneFraction outside [0, 1]");
}

std::vector<LayerOption>
enumerateLayerOptions(const TuneRequest &req, std::size_t layer_index,
                      const std::vector<std::vector<std::size_t>> &inter,
                      const std::vector<std::vector<std::size_t>>
                          &combined_inter,
                      const gpu::GpuConfig &cfg)
{
    const double skip =
        req.stats[layer_index].skipFraction(req.modelHidden);

    std::vector<LayerOption> options;
    const auto add = [&](std::string label,
                         runtime::LayerSchedule ls) {
        ls.validate();
        // The rules can converge on the same point (e.g. a tissue
        // schedule of all ones equals dense); keep one copy so the
        // simulated candidate table stays readable.
        for (const LayerOption &o : options)
            if (o.schedule == ls)
                return;
        options.push_back({std::move(label), std::move(ls)});
    };

    runtime::LayerSchedule dense;
    dense.quant = req.quant;
    add("dense", dense);

    if (skip > 0.0) {
        runtime::LayerSchedule sw = dense;
        sw.skipPath = runtime::SkipPath::Software;
        sw.skipFraction = skip;
        add("skip-sw", sw);

        // A point the PlanKind enum never named: software row skip fed
        // by the fused U_o flag epilogue — drops the standalone scan
        // kernel and one element-wise pass per cell while keeping the
        // divergent software grid.
        runtime::LayerSchedule swf = sw;
        swf.flagFusion = runtime::FlagFusion::FusedEpilogue;
        add("skip-sw-fused", swf);

        runtime::LayerSchedule hw = sw;
        hw.skipPath = runtime::SkipPath::HwCrm;
        hw.flagFusion = runtime::FlagFusion::FusedEpilogue;
        add("skip-hw", hw);
    }

    // Persistent residency points. The dense variants pin the layer's U
    // block and launch once per sequence; the tissue variant keeps the
    // calibrated wave structure, so the search always contains the exact
    // per-layer point the Persistent preset lowers to (dominance of the
    // tuned plan over that preset follows).
    {
        runtime::LayerSchedule psh = dense;
        psh.residency = runtime::WeightResidency::Shared;
        add("persistent-shared", psh);

        runtime::LayerSchedule prf = dense;
        prf.residency = runtime::WeightResidency::Regfile;
        add("persistent-regfile", prf);
    }

    const auto multi_cell = [&](const std::vector<std::size_t> &sizes) {
        return std::any_of(sizes.begin(), sizes.end(),
                           [](std::size_t t) { return t > 1; });
    };
    if (layer_index < inter.size() && multi_cell(inter[layer_index])) {
        runtime::LayerSchedule tis = dense;
        tis.tissueSizes = inter[layer_index];
        add("tissues", tis);

        runtime::LayerSchedule tp = tis;
        tp.residency = runtime::WeightResidency::Regfile;
        add("tissues+persistent", tp);
    }
    if (skip > 0.0 && layer_index < combined_inter.size() &&
        multi_cell(combined_inter[layer_index])) {
        runtime::LayerSchedule both = dense;
        both.tissueSizes = combined_inter[layer_index];
        both.skipPath = runtime::SkipPath::HwCrm;
        both.skipFraction = skip;
        both.flagFusion = runtime::FlagFusion::FusedEpilogue;
        add("tissues+skip", both);
    }

    if (req.pruneFraction > 0.0 && req.pruneFraction < 1.0) {
        runtime::LayerSchedule csr;  // comparator stays fp32
        csr.prunedCsr = true;
        csr.pruneFraction = req.pruneFraction;
        add("pruned-csr", csr);
    }

    // --- Per-backend rules (DESIGN.md §17) ------------------------------
    // Explicit on-chip weight memory (E-PUR/SHARP class): when the
    // pinnable shared capacity covers this layer's whole U footprint,
    // streaming weights per wave buys nothing the resident kernel does
    // not already have — price the streamed options out of the menu.
    // The dense point survives as the comparison anchor, and resident
    // points carry the searched mass.
    if (cfg.explicitWeightMemory) {
        const double capacity = gpu::residencyCapacityBytes(
            cfg, runtime::WeightResidency::Shared);
        const double footprint = layerUFootprintBytes(
            req.shape.layers[layer_index], req.quant);
        if (capacity >= footprint) {
            options.erase(
                std::remove_if(options.begin(), options.end(),
                               [](const LayerOption &o) {
                                   return o.label != "dense" &&
                                          !o.schedule.persistent();
                               }),
                options.end());
        }
    }

    // Int8 dot-product units: narrowing to int4 costs no convert issue
    // slots, so an int8 request also searches the int4 twin of every
    // quantized candidate (Fig. 16's interesting row on dp4a-class
    // parts). Backends without dot units never enumerate these
    // dequant-heavy points — on Maxwell the cvt tax claws the win back.
    if (cfg.int8DotUnits && req.quant == quant::QuantMode::Int8) {
        const std::size_t base = options.size();
        for (std::size_t i = 0; i < base; ++i) {
            if (options[i].schedule.quant != req.quant)
                continue;  // the CSR comparator stays fp32
            runtime::LayerSchedule narrow = options[i].schedule;
            narrow.quant = quant::QuantMode::Int4;
            narrow.validate();
            options.push_back({options[i].label + "-int4",
                               std::move(narrow)});
        }
    }

    return options;
}

} // namespace sched
} // namespace mflstm
