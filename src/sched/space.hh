/**
 * @file
 * Decision-space enumeration for the auto-scheduler (DESIGN.md §14).
 * Given one network's measured approximation statistics, the rules here
 * spell out every per-layer LayerSchedule candidate the tuner will
 * consider — the canonical preset points plus the compositions the old
 * PlanKind enum could never name (software skip with a fused flag
 * epilogue, tissues without skip on one layer but not another, per-app
 * zero-pruning fallback). The tuner prunes this space with cheap
 * lowering-level byte estimates before paying for full simulation.
 */

#ifndef MFLSTM_SCHED_SPACE_HH
#define MFLSTM_SCHED_SPACE_HH

#include <string>
#include <vector>

#include "core/approx.hh"
#include "gpu/config.hh"
#include "runtime/plan.hh"

namespace mflstm {
namespace sched {

/**
 * Everything one tuning run needs: the timing shape, the measured
 * per-layer statistics to project onto it, the calibration outputs the
 * preset planner consumes, and the precision/batch point being tuned.
 * Together with the GpuConfig of the executor this keys the tuned-plan
 * cache artifact.
 */
struct TuneRequest
{
    runtime::NetworkShape shape;
    /**
     * hw registry id of the backend being tuned for ("" = unspecified,
     * treated as the anchor). Recorded in the tuned-plan artifact
     * fingerprint so a cache written under one backend is Stale under
     * another even before the GpuConfig byte compare runs.
     */
    std::string backendId;
    /// one entry per layer, from an ApproxRunner evaluation pass
    std::vector<core::LayerApproxStats> stats;
    /// maximum tissue size from the offline sweep (Fig. 10 op 1)
    std::size_t mts = 1;
    /// hidden size of the accuracy model (normalises skippedRows)
    std::size_t modelHidden = 0;
    /// weight precision being tuned for
    quant::QuantMode quant = quant::QuantMode::Fp32;
    /// concurrent sequences per kernel during scoring runs
    std::size_t batch = 1;

    /** @throws std::invalid_argument on an inconsistent request. */
    void validate() const;
};

/// per-layer candidates surviving the tuner's byte-estimate prune
inline constexpr std::size_t kMaxLayerCandidates = 4;

/** One per-layer schedule option, labelled for the candidate table. */
struct LayerOption
{
    std::string label;  ///< stable rule name ("dense", "skip-hw", ...)
    runtime::LayerSchedule schedule;
};

/**
 * Enumerate the rule-driven schedule options for layer @p layer_index
 * of @p req. Always includes the dense schedule; adds skip variants
 * (sw-standalone, sw-fused, hw-crm) when the layer's measured skip
 * fraction is positive, tissue schedules (with and without fused DRS)
 * when the division statistics produce tissues larger than one cell
 * (@p inter / @p combined_inter are the aligned per-layer schedules the
 * preset planner built at the calibrated and the DRS-extended MTS),
 * persistent residency points (dense layers pinned to the shared and
 * register-file tiers, plus tissues+regfile so the Persistent preset's
 * exact per-layer point is always in the search), and the zero-pruning
 * CSR point at runtime::kZeroPruningFraction.
 *
 * The rule set is per-backend (@p cfg, DESIGN.md §17): on parts with
 * int8 dot-product units an int8 request also enumerates int4 twins of
 * every quantized candidate (narrowing is free of the Maxwell convert
 * tax there — the Fig. 16 row worth searching), while backends without
 * dot units never see those dequant-heavy int4 points; on accelerators
 * with explicit on-chip weight memory whose pinnable shared capacity
 * covers this layer's recurrent footprint, streamed-weight options are
 * priced out of the menu entirely (the dense point stays as the
 * comparison anchor, resident points carry the searched mass).
 * Every returned schedule passes LayerSchedule::validate().
 */
std::vector<LayerOption>
enumerateLayerOptions(const TuneRequest &req, std::size_t layer_index,
                      const std::vector<std::vector<std::size_t>> &inter,
                      const std::vector<std::vector<std::size_t>>
                          &combined_inter,
                      const gpu::GpuConfig &cfg);

} // namespace sched
} // namespace mflstm

#endif // MFLSTM_SCHED_SPACE_HH
