/**
 * @file
 * Explicit schedule decisions (DESIGN.md §14): the per-layer choices
 * the lowering used to infer from a closed PlanKind enum, spelled out
 * as one composable structure. A LayerSchedule answers, for one layer,
 * every question the lowering asks:
 *
 *   - tissue schedule: batch cells into tissue Sgemms (Section IV-D)
 *     or run the per-cell flow;
 *   - intra-cell skip path: no DRS, the divergent software path, or
 *     the CRM hardware dataflow (Section V);
 *   - flag fusion: standalone DRS scan kernel vs relevance flags
 *     emitted from the U_o epilogue (the CRM dispatch contract — and,
 *     independently, a searchable point on the software path);
 *   - weight precision for this layer's kernels (per-layer mixed
 *     precision falls out of making this a layer decision);
 *   - the zero-pruning CSR comparator flow (Section VI-B2).
 *
 * The PlanKind presets are canonical points of this space
 * (ExecutionPlan::preset builds them), and the lowering consumes only
 * LayerSchedule — so the src/sched search composes points the enum
 * could never name (e.g. software skip with a fused flag epilogue, or
 * per-layer fp32 fallback under a quantized plan) through the same
 * path.
 */

#ifndef MFLSTM_RUNTIME_SCHEDULE_HH
#define MFLSTM_RUNTIME_SCHEDULE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpu/kernel.hh"
#include "quant/qformat.hh"

namespace mflstm {
namespace runtime {

/**
 * On-chip weight residency of a persistent layer (gpu tier enum —
 * shared between the schedule decision and the KernelDesc the lowering
 * emits). `None` streams U from DRAM every wave; `Shared`/`Regfile`
 * lower the layer into one persistent kernel whose resident weight
 * block crosses the bus once per sequence.
 */
using WeightResidency = gpu::WeightResidency;

/** Intra-cell row-skip dataflow for one layer (Section V). */
enum class SkipPath : std::uint32_t {
    Off = 0,       ///< dense recurrent GEMMs, no DRS
    Software = 1,  ///< divergent software row skip (Algorithm 3)
    HwCrm = 2,     ///< CRM-compacted dispatch (Section V-B)
};

/** Where the relevance flags of the DRS scan are produced. */
enum class FlagFusion : std::uint32_t {
    Standalone = 0,     ///< separate DRS scan kernel after sigma(o_t)
    FusedEpilogue = 1,  ///< U_o epilogue applies sigma and emits flags
};

/** Every schedule decision the lowering needs for one layer. */
struct LayerSchedule
{
    /**
     * Tissue sizes in execution order (sums to the layer length when
     * non-empty). Empty — or degenerate all-ones — selects the
     * per-cell flow; see usesTissues().
     */
    std::vector<std::size_t> tissueSizes;

    SkipPath skipPath = SkipPath::Off;
    /// mean fraction of U_{f,i,c} rows skipped per cell
    double skipFraction = 0.0;
    FlagFusion flagFusion = FlagFusion::Standalone;

    /// weight precision of this layer's kernels (DESIGN.md §12)
    quant::QuantMode quant = quant::QuantMode::Fp32;

    /// zero-pruning CSR comparator flow ([31]); excludes every other
    /// optimisation and is defined on fp32 weights
    bool prunedCsr = false;
    /// element fraction pruned by the comparator (prunedCsr only)
    double pruneFraction = 0.0;

    /**
     * Persistent on-chip weight residency: lower this layer into one
     * persistent kernel whose resident share of U crosses the bus once
     * per sequence (per batch wave in the serve batcher) instead of
     * once per tissue/timestep. Composes with the tissue schedule (the
     * persistent grid synchronises at tissue-wave granularity) and any
     * precision; excludes DRS and the CSR comparator — see validate().
     */
    WeightResidency residency = WeightResidency::None;

    /** True when the tissue flow actually runs (maxTissue > 1). */
    bool usesTissues() const;

    /** True when this layer lowers into one persistent kernel. */
    bool persistent() const
    {
        return residency != WeightResidency::None;
    }

    /** True when a row-skip kernel is emitted for this layer. */
    bool skipActive() const
    {
        return skipPath != SkipPath::Off && skipFraction > 0.0;
    }

    /**
     * Reject decision combinations the hardware model cannot execute:
     * the CRM consumes raw flags from the fused U_o epilogue (HwCrm
     * requires FusedEpilogue); DRS inside a tissue always dispatches
     * through the CRM (tissues + skip require HwCrm); the CSR
     * comparator composes with nothing and stays fp32; fractions must
     * be finite and within [0, 1]; persistent residency excludes DRS
     * (the GMU re-dispatches per-wave row-skip grids, but a persistent
     * layer launches exactly once) and the CSR comparator (whose
     * gather-indexed rows cannot be pinned as a dense block).
     *
     * @throws std::invalid_argument naming the violated rule.
     */
    void validate() const;

    bool operator==(const LayerSchedule &) const = default;
};

/** A full network's schedule: one LayerSchedule per layer. */
struct ScheduleDecisions
{
    std::vector<LayerSchedule> layers;

    bool empty() const { return layers.empty(); }

    /** validate() every layer; error messages carry the layer index. */
    void validate() const;

    bool operator==(const ScheduleDecisions &) const = default;
};

} // namespace runtime
} // namespace mflstm

#endif // MFLSTM_RUNTIME_SCHEDULE_HH
