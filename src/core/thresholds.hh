/**
 * @file
 * The threshold tuning space (Section VI-C): the pair (alpha_inter,
 * alpha_intra), its per-application upper limits (Fig. 10 offline op 2),
 * the 11-point ladder swept in Fig. 19, and the AO / BPA / preference-
 * constrained operating-point selectors.
 */

#ifndef MFLSTM_CORE_THRESHOLDS_HH
#define MFLSTM_CORE_THRESHOLDS_HH

#include <cstddef>
#include <vector>

#include "core/approx.hh"
#include "quant/qformat.hh"

namespace mflstm {
namespace core {

/** One point in the tuning space. */
struct ThresholdSet
{
    double alphaInter = 0.0;
    double alphaIntra = 0.0;
    /**
     * Weight precision served at this point (DESIGN.md §12) — the third
     * axis of the tuning space. Like the alphas it trades accuracy for
     * memory time, so AO/BPA selection and the serving governor handle
     * it uniformly: accuracy is measured through a fake-quantized model
     * and AO still means <= 2% end-to-end loss.
     */
    quant::QuantMode quant = quant::QuantMode::Fp32;

    bool operator==(const ThresholdSet &) const = default;
};

/** Per-application threshold upper limits. */
struct ThresholdLimits
{
    double maxInter = 0.0;  ///< alpha_inter upper limit
    double maxIntra = 0.0;  ///< alpha_intra upper limit
    /// link fraction broken at maxInter (diagnostic / ladder spacing)
    double maxBreakFraction = 0.0;
    /// row fraction skipped at maxIntra
    double maxSkipFraction = 0.0;
};

/**
 * Derive the upper limits from a calibration profile:
 *
 *  - maxInter follows the paper's empirical procedure (Fig. 10 op 2):
 *    sweep candidate thresholds over the observed relevance
 *    distribution and keep the *smallest* one whose projected tissue
 *    count (per-layer break rates -> sub-layers -> aligned tissues
 *    under the MTS) reaches the achievable minimum — beyond it, a
 *    larger threshold cannot reduce the tissue count below Eq. 7's
 *    N_min and only costs accuracy;
 *
 *  - maxIntra is the o_t quantile at @p max_skip_cap: skipping more
 *    rows than that has no memory-time left to save (the split U_o
 *    Sgemv becomes the floor).
 */
ThresholdLimits
findThresholdLimits(const ApproxRunner::CalibrationProfile &profile,
                    std::size_t mts, std::size_t sequence_length,
                    double max_skip_cap = 0.75);

/**
 * Projected total tissue count of the whole network at one alpha_inter:
 * per layer, the profile's break fraction scaled to the timing-shape
 * length, evenly divided into sub-layers and aligned under the MTS.
 */
std::size_t
projectedTissueCount(const ApproxRunner::CalibrationProfile &profile,
                     double alpha_inter, std::size_t mts,
                     std::size_t sequence_length);

/**
 * The Fig. 19 ladder: @p count threshold sets increasing from 0 (set 0 =
 * baseline, no accuracy loss) to the limits (last set = most
 * aggressive). Because both the relevance values and the output-gate
 * values concentrate near their saturation points in trained LSTMs, the
 * intermediate sets are spaced by *quantile* (equal increments of the
 * target broken-link / skipped-row fractions).
 *
 * Guaranteed: both thresholds are non-decreasing along the ladder. Not
 * guaranteed: that consecutive rungs behave differently. A point mass
 * in the profile maps several quantiles to the same value, so those
 * rungs share a threshold and break the same links (MR's rungs 1-8
 * share one alpha_inter).
 */
std::vector<ThresholdSet>
thresholdLadder(const ApproxRunner::CalibrationProfile &profile,
                const ThresholdLimits &limits, std::size_t count = 11);

/** One evaluated point of the trade-off curve. */
struct OperatingPoint
{
    std::size_t index = 0;  ///< ladder position
    ThresholdSet set;
    double speedup = 1.0;
    double accuracy = 0.0;  ///< absolute accuracy, [0,1]
};

/**
 * AO (accuracy-oriented): the fastest point whose accuracy loss vs
 * @p baseline_accuracy stays within @p max_loss_pct percent (the paper's
 * user-imperceptible 2%). Returns index into @p points.
 */
std::size_t selectAo(const std::vector<OperatingPoint> &points,
                     double baseline_accuracy, double max_loss_pct = 2.0);

/** BPA (best performance-accuracy): maximises speedup x accuracy. */
std::size_t selectBpa(const std::vector<OperatingPoint> &points);

/**
 * Preference-constrained selection (the building block of the UO
 * scheme): fastest point with accuracy >= @p min_accuracy; falls back
 * to the most accurate point when none qualifies.
 */
std::size_t selectForPreference(const std::vector<OperatingPoint> &points,
                                double min_accuracy);

/**
 * The serving governor's degradation ladder: threshold sets from the
 * AO point (inclusive) to the BPA point (inclusive) in ladder order,
 * so rung 0 is the accuracy-oriented operating point and the last rung
 * the best performance-accuracy one. When BPA is not more aggressive
 * than AO the ladder collapses to {AO} (nothing to degrade into).
 */
std::vector<ThresholdSet>
aoToBpaLadder(const std::vector<OperatingPoint> &points,
              double baseline_accuracy, double max_loss_pct = 2.0);

} // namespace core
} // namespace mflstm

#endif // MFLSTM_CORE_THRESHOLDS_HH
