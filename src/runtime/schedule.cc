#include "runtime/schedule.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mflstm {
namespace runtime {

bool
LayerSchedule::usesTissues() const
{
    if (tissueSizes.empty())
        return false;
    return *std::max_element(tissueSizes.begin(), tissueSizes.end()) > 1;
}

void
LayerSchedule::validate() const
{
    if (!std::isfinite(skipFraction) || skipFraction < 0.0 ||
        skipFraction > 1.0)
        throw std::invalid_argument(
            "LayerSchedule: skipFraction outside [0, 1]");
    if (!std::isfinite(pruneFraction) || pruneFraction < 0.0 ||
        pruneFraction > 1.0)
        throw std::invalid_argument(
            "LayerSchedule: pruneFraction outside [0, 1]");
    if (skipPath == SkipPath::HwCrm &&
        flagFusion != FlagFusion::FusedEpilogue)
        throw std::invalid_argument(
            "LayerSchedule: the CRM consumes raw flags from the fused "
            "U_o epilogue (hw-crm requires fused-epilogue)");
    if (usesTissues() && skipActive() && skipPath != SkipPath::HwCrm)
        throw std::invalid_argument(
            "LayerSchedule: DRS inside a tissue dispatches through the "
            "CRM (tissues + skip require hw-crm)");
    if (prunedCsr) {
        if (!tissueSizes.empty() || skipPath != SkipPath::Off)
            throw std::invalid_argument(
                "LayerSchedule: the CSR comparator flow composes with "
                "neither tissues nor DRS");
        if (quant != quant::QuantMode::Fp32)
            throw std::invalid_argument(
                "LayerSchedule: the CSR comparator is defined on fp32 "
                "weights");
    } else if (pruneFraction != 0.0) {
        throw std::invalid_argument(
            "LayerSchedule: pruneFraction without the prunedCsr flow");
    }
    if (persistent()) {
        if (skipPath != SkipPath::Off)
            throw std::invalid_argument(
                "LayerSchedule: DRS re-dispatches per-wave grids through "
                "the GMU, but a persistent layer launches once "
                "(residency requires skipPath off)");
        if (prunedCsr)
            throw std::invalid_argument(
                "LayerSchedule: the CSR comparator's gather-indexed rows "
                "cannot be pinned as a dense resident block (residency "
                "excludes prunedCsr)");
    }
}

void
ScheduleDecisions::validate() const
{
    for (std::size_t l = 0; l < layers.size(); ++l) {
        try {
            layers[l].validate();
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(
                "ScheduleDecisions: layer " + std::to_string(l) + ": " +
                e.what());
        }
    }
}

} // namespace runtime
} // namespace mflstm
