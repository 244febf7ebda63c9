/**
 * @file
 * Plan builder: projects the approximation statistics measured on the
 * (scaled) accuracy model onto the full Table II timing shape and emits
 * a preset runtime::ExecutionPlan — per-layer tissue schedules
 * (division rate -> sub-layer lengths -> aligned tissues under the MTS)
 * and per-layer DRS skip fractions.
 */

#ifndef MFLSTM_CORE_PLANNER_HH
#define MFLSTM_CORE_PLANNER_HH

#include <vector>

#include "core/approx.hh"
#include "runtime/executor.hh"
#include "runtime/plan.hh"

namespace mflstm {
namespace core {

/**
 * Evenly divide @p length cells into @p parts sub-layers (what the
 * measured break rate implies on the timing-shape sequence length).
 */
std::vector<std::size_t> evenSubLayers(std::size_t length,
                                       std::size_t parts);

/**
 * Build the execution plan for preset @p kind from per-layer stats:
 * tissue sizes (tissue kinds) and skip fractions (skip kinds) fed to
 * runtime::ExecutionPlan::preset at precision @p quant.
 *
 * @param stats        one LayerApproxStats per layer, populated by an
 *                     ApproxRunner evaluation pass.
 * @param shape        full-size timing shape (Table II row).
 * @param mts          maximum tissue size (see presetMts).
 * @param model_hidden hidden size of the accuracy model (to normalise
 *                     skippedRows into a fraction).
 */
runtime::ExecutionPlan
buildPlan(runtime::PlanKind kind,
          const std::vector<LayerApproxStats> &stats,
          const runtime::NetworkShape &shape, std::size_t mts,
          std::size_t model_hidden, quant::QuantMode quant);

/**
 * The MTS preset @p kind plans its tissues under: the calibrated
 * @p mts, except that Combined re-runs the sweep on @p layer with the
 * measured mean skip fraction — DRS relieves on-chip traffic inside
 * the tissue GEMM, which raises the bandwidth-limited MTS.
 */
std::size_t presetMts(const runtime::NetworkExecutor &exec,
                      runtime::PlanKind kind,
                      const std::vector<LayerApproxStats> &stats,
                      const runtime::LstmLayerShape &layer,
                      std::size_t mts, std::size_t model_hidden);

} // namespace core
} // namespace mflstm

#endif // MFLSTM_CORE_PLANNER_HH
