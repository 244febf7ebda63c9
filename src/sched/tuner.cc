#include "sched/tuner.hh"

#include <algorithm>
#include <stdexcept>

#include "core/planner.hh"
#include "core/tissue.hh"

namespace mflstm {
namespace sched {

namespace {

/** The presets the paper's evaluation compares (Fig. 14 columns). */
constexpr runtime::PlanKind kPresets[] = {
    runtime::PlanKind::Baseline,    runtime::PlanKind::InterCell,
    runtime::PlanKind::IntraCellSw, runtime::PlanKind::IntraCellHw,
    runtime::PlanKind::Combined,    runtime::PlanKind::ZeroPruning,
    runtime::PlanKind::Persistent,
};

/**
 * Cheap pre-simulation cost: total DRAM bytes of the lowered trace.
 * This is the byte-estimate prune of DESIGN.md §14 — it ranks layer
 * options without paying for the latency simulation.
 */
double
traceDramBytes(const runtime::NetworkExecutor &exec,
               const runtime::LstmLayerShape &layer,
               const runtime::ExecutionPlan &plan, std::size_t batch)
{
    runtime::NetworkShape one;
    one.layers = {layer};
    const gpu::KernelTrace trace =
        exec.lowering().lower(one, plan, batch);
    double bytes = 0.0;
    for (const gpu::KernelLaunch &l : trace.launches()) {
        const gpu::KernelDesc &k = trace.kernels()[l.kernel];
        bytes += k.dramReadBytes + k.dramWriteBytes;
    }
    return bytes;
}

runtime::ExecutionPlan
singleLayerPlan(const runtime::LayerSchedule &ls)
{
    runtime::ScheduleDecisions d;
    d.layers = {ls};
    return runtime::ExecutionPlan::fromDecisions(std::move(d));
}

struct ScoredOption
{
    LayerOption option;
    double estBytes = 0.0;
    double timeUs = 0.0;
    double dramBytes = 0.0;
};

} // anonymous namespace

runtime::ExecutionPlan
presetPlan(const runtime::NetworkExecutor &exec, const TuneRequest &req,
           runtime::PlanKind kind)
{
    req.validate();

    if (kind == runtime::PlanKind::Baseline ||
        kind == runtime::PlanKind::ZeroPruning)
        return runtime::ExecutionPlan::preset(
            kind, req.shape.layers.size(), req.quant, {}, {},
            req.pruneFraction);

    const std::size_t mts =
        core::presetMts(exec, kind, req.stats, req.shape.layers.front(),
                        req.mts, req.modelHidden);
    return core::buildPlan(kind, req.stats, req.shape, mts,
                           req.modelHidden, req.quant);
}

double
simulatedTimeUs(const runtime::NetworkExecutor &exec,
                const TuneRequest &req,
                const runtime::ExecutionPlan &plan)
{
    return exec
        .run(runtime::RunRequest::network(req.shape, plan, req.batch))
        .result.timeUs;
}

TuneResult
tune(const runtime::NetworkExecutor &exec, const TuneRequest &req)
{
    req.validate();

    TuneResult result;

    const auto score = [&](std::string label,
                           runtime::ExecutionPlan plan) -> Candidate & {
        const runtime::RunReport report = exec.run(
            runtime::RunRequest::network(req.shape, plan, req.batch));
        result.candidates.push_back({std::move(label), std::move(plan),
                                     report.result.timeUs,
                                     report.result.dramBytes});
        return result.candidates.back();
    };

    // --- 1. The presets, through the canonical construction ----------
    // Each preset plan is built once. InterCell and Combined also hand
    // their tissue sizes to step 2, so the Combined MTS sweep
    // (core::presetMts) runs once per tune.
    const auto tissues = [](const runtime::ExecutionPlan &plan) {
        std::vector<std::vector<std::size_t>> sizes;
        for (const runtime::LayerSchedule &ls : plan.decisions.layers)
            sizes.push_back(ls.tissueSizes);
        return sizes;
    };
    std::vector<std::vector<std::size_t>> inter, combined_inter;
    for (runtime::PlanKind kind : kPresets) {
        const Candidate &c =
            score(std::string("preset:") + runtime::toString(kind),
                  presetPlan(exec, req, kind));
        if (kind == runtime::PlanKind::InterCell)
            inter = tissues(c.plan);
        else if (kind == runtime::PlanKind::Combined)
            combined_inter = tissues(c.plan);
    }
    const std::size_t preset_count = result.candidates.size();

    // --- 2. Per-layer rule enumeration + byte prune + layer scoring ---
    std::vector<runtime::LayerSchedule> min_time, min_bytes;
    std::vector<std::string> time_labels, bytes_labels;
    for (std::size_t l = 0; l < req.shape.layers.size(); ++l) {
        std::vector<ScoredOption> scored;
        for (LayerOption &opt :
             enumerateLayerOptions(req, l, inter, combined_inter,
                                   exec.config())) {
            ScoredOption so;
            so.estBytes =
                traceDramBytes(exec, req.shape.layers[l],
                               singleLayerPlan(opt.schedule), req.batch);
            so.option = std::move(opt);
            scored.push_back(std::move(so));
        }

        // Keep the maxLayerCandidates cheapest byte estimates (ties by
        // enumeration order — stable_sort keeps this deterministic);
        // the dense point always survives via the preset candidates.
        std::stable_sort(scored.begin(), scored.end(),
                         [](const ScoredOption &a, const ScoredOption &b) {
                             return a.estBytes < b.estBytes;
                         });
        if (scored.size() > req.maxLayerCandidates)
            scored.resize(req.maxLayerCandidates);

        for (ScoredOption &so : scored) {
            const runtime::RunReport rep = exec.run(
                runtime::RunRequest::layer(req.shape.layers[l],
                                           singleLayerPlan(
                                               so.option.schedule),
                                           0, req.batch));
            so.timeUs = rep.result.timeUs;
            so.dramBytes = rep.result.dramBytes;
        }

        const auto by_time = std::min_element(
            scored.begin(), scored.end(),
            [](const ScoredOption &a, const ScoredOption &b) {
                return a.timeUs != b.timeUs
                           ? a.timeUs < b.timeUs
                           : a.dramBytes < b.dramBytes;
            });
        const auto by_bytes = std::min_element(
            scored.begin(), scored.end(),
            [](const ScoredOption &a, const ScoredOption &b) {
                return a.dramBytes != b.dramBytes
                           ? a.dramBytes < b.dramBytes
                           : a.timeUs < b.timeUs;
            });
        min_time.push_back(by_time->option.schedule);
        time_labels.push_back(by_time->option.label);
        min_bytes.push_back(by_bytes->option.schedule);
        bytes_labels.push_back(by_bytes->option.label);
    }

    // --- 3. Composed whole-network candidates -------------------------
    {
        runtime::ScheduleDecisions d;
        d.layers = min_time;
        score("search:min-time",
              runtime::ExecutionPlan::fromDecisions(std::move(d)));
    }
    if (min_bytes != min_time) {
        runtime::ScheduleDecisions d;
        d.layers = min_bytes;
        score("search:min-bytes",
              runtime::ExecutionPlan::fromDecisions(std::move(d)));
    }

    // --- 4. Dominance-gated selection ---------------------------------
    const auto better_time = [](const Candidate &a, const Candidate &b) {
        return a.timeUs != b.timeUs ? a.timeUs < b.timeUs
                                    : a.dramBytes < b.dramBytes;
    };
    const Candidate &ref = *std::min_element(
        result.candidates.begin(),
        result.candidates.begin() +
            static_cast<std::ptrdiff_t>(preset_count),
        better_time);
    result.referenceLabel = ref.label;
    result.referenceTimeUs = ref.timeUs;
    result.referenceDramBytes = ref.dramBytes;

    // Only candidates at least as good as the best preset on *both*
    // metrics are eligible; ref itself always qualifies, so the chosen
    // plan can never regress either axis.
    const Candidate *chosen = &ref;
    for (const Candidate &c : result.candidates) {
        if (c.timeUs > ref.timeUs || c.dramBytes > ref.dramBytes)
            continue;
        if (better_time(c, *chosen))
            chosen = &c;
    }

    result.chosen = *chosen;
    result.chosen.plan.kind = runtime::PlanKind::Tuned;
    result.chosenLayerLabels =
        chosen->label == "search:min-bytes" ? bytes_labels : time_labels;
    if (chosen->label.rfind("preset:", 0) == 0)
        result.chosenLayerLabels.assign(req.shape.layers.size(),
                                        chosen->label);
    result.dominatesReference =
        result.chosen.timeUs <= result.referenceTimeUs &&
        result.chosen.dramBytes <= result.referenceDramBytes;

    std::stable_sort(result.candidates.begin(), result.candidates.end(),
                     better_time);
    return result;
}

} // namespace sched
} // namespace mflstm
