/**
 * @file
 * Cost-model-guided auto-scheduler (DESIGN.md §14). The tuner searches
 * the per-layer decision space of space.hh for one (network, GpuConfig,
 * QuantMode) point: rule-driven enumeration per layer, a cheap
 * lowering-level byte-estimate prune, per-layer scoring by single-layer
 * simulation, then full-network simulation of the composed candidates
 * next to every PlanKind preset. Selection is dominance-gated: the
 * chosen plan is never worse than the best preset on simulated time
 * *and* DRAM bytes, by construction (the best preset itself stays
 * eligible). The winner is relabelled PlanKind::Tuned; its decisions
 * go into the persist.hh cache artifact as they are.
 *
 * Everything here is deterministic: same request + same GpuConfig →
 * the same candidate table, the same chosen plan, byte-identical
 * artifacts.
 */

#ifndef MFLSTM_SCHED_TUNER_HH
#define MFLSTM_SCHED_TUNER_HH

#include <string>
#include <vector>

#include "runtime/executor.hh"
#include "sched/space.hh"

namespace mflstm {
namespace sched {

/** One fully simulated whole-network schedule. */
struct Candidate
{
    /// stable rule label ("preset:combined", "search:min-time", ...)
    std::string label;
    runtime::ExecutionPlan plan;
    double timeUs = 0.0;
    double dramBytes = 0.0;
};

/** The tuner's full output (everything the table/report prints). */
struct TuneResult
{
    /// the winning candidate, relabelled PlanKind::Tuned
    Candidate chosen;
    /// what the winner's decisions were composed from, per layer
    std::vector<std::string> chosenLayerLabels;
    /// every simulated whole-network candidate, fastest first
    std::vector<Candidate> candidates;
    /// the dominance reference: best preset by (time, then bytes)
    std::string referenceLabel;
    double referenceTimeUs = 0.0;
    double referenceDramBytes = 0.0;
    /// satisfied by construction; recorded for the report/bench gate
    bool dominatesReference = false;
    /// true when persist.hh served this result from a cache artifact
    bool fromCache = false;
};

/**
 * Build the preset ExecutionPlan for @p kind from the request's
 * statistics, exactly as the facade's timing path would (including the
 * Combined MTS re-sweep with the measured mean skip). Exposed so the
 * tune bench can score hand presets through the identical construction.
 */
runtime::ExecutionPlan
presetPlan(const runtime::NetworkExecutor &exec, const TuneRequest &req,
           runtime::PlanKind kind);

/**
 * Run the search. @p exec supplies the GpuConfig, lowering and
 * simulator used for every estimate and score.
 * @throws std::invalid_argument via TuneRequest::validate().
 */
TuneResult tune(const runtime::NetworkExecutor &exec,
                const TuneRequest &req);

/** Geomean-style scalar used in reports: microseconds. */
double simulatedTimeUs(const runtime::NetworkExecutor &exec,
                       const TuneRequest &req,
                       const runtime::ExecutionPlan &plan);

} // namespace sched
} // namespace mflstm

#endif // MFLSTM_SCHED_TUNER_HH
