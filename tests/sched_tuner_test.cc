/**
 * Auto-scheduler search (DESIGN.md §14): request validation, layer
 * option enumeration, determinism of the full search, and the
 * dominance guarantee — the chosen plan is never worse than the best
 * preset on simulated time and DRAM bytes.
 */

#include <gtest/gtest.h>

#include <string>

#include "gpu/config.hh"
#include "obs/observer.hh"
#include "runtime/executor.hh"
#include "sched/tuner.hh"

namespace mflstm {
namespace sched {
namespace {

/** A 2-layer request with active break and skip statistics. */
TuneRequest
smallRequest()
{
    TuneRequest req;
    req.shape = runtime::NetworkShape::stacked(64, 128, 2, 20);
    req.mts = 4;
    req.modelHidden = 128;
    core::LayerApproxStats s;
    s.sequences = 10;
    s.links = 190;
    s.breaks = 60;
    s.cells = 200;
    s.skippedRows = 0.4 * 200 * 128;
    req.stats = {s, s};
    return req;
}

TEST(TuneRequestValidate, RejectsInconsistentRequests)
{
    TuneRequest req = smallRequest();
    req.stats.pop_back();  // stats must map 1:1 onto layers
    EXPECT_THROW(req.validate(), std::invalid_argument);

    req = smallRequest();
    req.modelHidden = 0;
    EXPECT_THROW(req.validate(), std::invalid_argument);

    req = smallRequest();
    req.pruneFraction = 1.5;
    EXPECT_THROW(req.validate(), std::invalid_argument);

    req = smallRequest();
    req.batch = 0;
    EXPECT_THROW(req.validate(), std::invalid_argument);

    EXPECT_NO_THROW(smallRequest().validate());
}

TEST(EnumerateLayerOptions, CoversDenseSkipVariantsAndCsr)
{
    const TuneRequest req = smallRequest();
    const std::vector<LayerOption> opts =
        enumerateLayerOptions(req, 0, {}, {},
                              gpu::GpuConfig::tegraX1());

    auto has = [&](const std::string &label) {
        for (const LayerOption &o : opts)
            if (o.label == label)
                return true;
        return false;
    };
    EXPECT_TRUE(has("dense"));
    EXPECT_TRUE(has("skip-sw"));
    EXPECT_TRUE(has("skip-sw-fused"));  // the point PlanKind never named
    EXPECT_TRUE(has("skip-hw"));
    EXPECT_TRUE(has("pruned-csr"));
    for (const LayerOption &o : opts) {
        SCOPED_TRACE(o.label);
        EXPECT_NO_THROW(o.schedule.validate());
    }
}

TEST(EnumerateLayerOptions, SkipVariantsNeedMeasuredSkip)
{
    TuneRequest req = smallRequest();
    for (core::LayerApproxStats &s : req.stats)
        s.skippedRows = 0.0;
    const std::vector<LayerOption> opts =
        enumerateLayerOptions(req, 0, {}, {},
                              gpu::GpuConfig::tegraX1());
    for (const LayerOption &o : opts)
        EXPECT_EQ(o.label.find("skip"), std::string::npos) << o.label;
}

TEST(Tune, IsDeterministic)
{
    const runtime::NetworkExecutor exec(gpu::GpuConfig::tegraX1());
    const TuneRequest req = smallRequest();

    const TuneResult a = tune(exec, req);
    const TuneResult b = tune(exec, req);

    EXPECT_EQ(a.chosen.label, b.chosen.label);
    EXPECT_EQ(a.chosen.plan, b.chosen.plan);
    EXPECT_EQ(a.chosen.timeUs, b.chosen.timeUs);
    EXPECT_EQ(a.chosen.dramBytes, b.chosen.dramBytes);
    EXPECT_EQ(a.chosenLayerLabels, b.chosenLayerLabels);
    EXPECT_EQ(a.referenceLabel, b.referenceLabel);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (std::size_t i = 0; i < a.candidates.size(); ++i) {
        EXPECT_EQ(a.candidates[i].label, b.candidates[i].label);
        EXPECT_EQ(a.candidates[i].timeUs, b.candidates[i].timeUs);
        EXPECT_EQ(a.candidates[i].dramBytes, b.candidates[i].dramBytes);
    }
}

TEST(Tune, ChosenDominatesEveryPreset)
{
    const runtime::NetworkExecutor exec(gpu::GpuConfig::tegraX1());
    const TuneRequest req = smallRequest();
    const TuneResult res = tune(exec, req);

    EXPECT_TRUE(res.dominatesReference);
    EXPECT_EQ(res.chosen.plan.kind, runtime::PlanKind::Tuned);
    EXPECT_EQ(res.chosen.plan.decisions.layers.size(),
              req.shape.layers.size());
    EXPECT_EQ(res.chosenLayerLabels.size(), req.shape.layers.size());

    // The dominance reference is the best preset by (time, then
    // bytes): the chosen plan is no worse than it on both axes, which
    // makes it no slower than *any* preset. (A slower preset may still
    // use fewer DRAM bytes — the gate is against the reference, not a
    // per-axis sweep of the whole table.)
    EXPECT_LE(res.chosen.timeUs, res.referenceTimeUs);
    EXPECT_LE(res.chosen.dramBytes, res.referenceDramBytes);
    std::size_t presets = 0;
    for (const Candidate &c : res.candidates) {
        if (c.label.rfind("preset:", 0) != 0)
            continue;
        ++presets;
        EXPECT_LE(res.chosen.timeUs, c.timeUs) << c.label;
        if (c.label == res.referenceLabel) {
            EXPECT_EQ(c.timeUs, res.referenceTimeUs);
            EXPECT_EQ(c.dramBytes, res.referenceDramBytes);
        }
    }
    EXPECT_EQ(presets, 7u);  // every requestable PlanKind was scored

    // Table rows come fastest first.
    for (std::size_t i = 1; i < res.candidates.size(); ++i)
        EXPECT_LE(res.candidates[i - 1].timeUs, res.candidates[i].timeUs);
}

TEST(Tune, RunsTheCombinedMtsSweepOnce)
{
    obs::Observer observer;
    const runtime::NetworkExecutor exec(gpu::GpuConfig::tegraX1(),
                                        &observer);
    const TuneRequest req = smallRequest();
    (void)tune(exec, req);

    // 7 presets + one 12-probe Combined MTS sweep + 2 layers x 4
    // byte-prune survivors + 2 composed candidates. A second sweep
    // (re-deriving the Combined tissues for step 2) would make it 41.
    const obs::Counter *runs =
        observer.metrics().findCounter("executor.runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(runs->value(), 7.0 + 12.0 + 2.0 * 4.0 + 2.0);
}

TEST(Tune, PresetPlansScoreIdenticallyToCandidates)
{
    const runtime::NetworkExecutor exec(gpu::GpuConfig::tegraX1());
    const TuneRequest req = smallRequest();
    const TuneResult res = tune(exec, req);

    const runtime::ExecutionPlan baseline =
        presetPlan(exec, req, runtime::PlanKind::Baseline);
    const double t = simulatedTimeUs(exec, req, baseline);
    for (const Candidate &c : res.candidates) {
        if (c.label == "preset:baseline") {
            EXPECT_EQ(c.timeUs, t);
        }
    }
}

} // namespace
} // namespace sched
} // namespace mflstm
