/**
 * @file
 * Backend identity in persisted artifacts (DESIGN.md §17): a tuned
 * plan or engine warm state recorded under one hw backend must be
 * rejected as Stale under another — even when the GpuConfigs happen to
 * agree.
 * Also locks in the governor's precision-switch instrumentation: a
 * mixed-quant ladder walk pays a visible twin rebuild, surfaced as
 * serve.precision_switch_total + serve.twin_rebuild_ms.
 */

#include <cstdio>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "hw/backend.hh"
#include "runtime/executor.hh"
#include "sched/persist.hh"
#include "serve/engine.hh"
#include "serve/persist.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;

std::string
tmpPath(const char *tag)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("mflstm_backend_stale_") + tag + "_" +
             std::to_string(::getpid()) + ".bin"))
        .string();
}

// --- Tuned-plan artifacts -------------------------------------------

sched::TuneRequest
smallRequest(const std::string &backendId)
{
    sched::TuneRequest req;
    req.shape = runtime::NetworkShape::stacked(64, 128, 2, 20);
    req.backendId = backendId;
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

TEST(TunedPlanBackend, WrongBackendRejectedAsStale)
{
    const std::string path = tmpPath("tuned");
    const gpu::GpuConfig cfg = hw::registry().get("tx1").config;
    const runtime::NetworkExecutor exec(cfg);

    const sched::TuneRequest req = smallRequest("tx1");
    const sched::TuneResult res = sched::tune(exec, req);
    sched::saveTunedPlan(
        sched::makeTunedPlanArtifact(req, 0x1234, cfg, res), path);

    // Same GpuConfig bytes, different recorded backend: still Stale —
    // the identity is part of the fingerprint, not derived from the
    // config compare.
    try {
        sched::loadTunedPlan(path, cfg, smallRequest("dp4a"), 0x1234);
        FAIL() << "tuned plan for tx1 accepted under dp4a";
    } catch (const io::ArtifactError &e) {
        EXPECT_EQ(e.kind(), io::ErrorKind::Stale);
    }

    // The recorded backend still loads.
    EXPECT_NO_THROW(
        sched::loadTunedPlan(path, cfg, smallRequest("tx1"), 0x1234));
    std::remove(path.c_str());
}

// --- Engine warm state ----------------------------------------------

nn::ModelConfig
clsConfig()
{
    nn::ModelConfig cfg;
    cfg.task = nn::TaskKind::Classification;
    cfg.vocab = 20;
    cfg.embedSize = 8;
    cfg.hiddenSize = 12;
    cfg.numLayers = 2;
    cfg.numClasses = 2;
    return cfg;
}

std::vector<std::vector<std::int32_t>>
seqs(std::size_t n, std::size_t len, std::uint64_t seed)
{
    tensor::Rng rng(seed);
    std::vector<std::vector<std::int32_t>> out(n);
    for (auto &s : out)
        for (std::size_t t = 0; t < len; ++t)
            s.push_back(static_cast<std::int32_t>(rng.integer(0, 19)));
    return out;
}

class BackendWarmStateTest : public ::testing::Test
{
  protected:
    BackendWarmStateTest()
        : model(clsConfig(), 77),
          mf(model, {hw::registry().get("tx1").config,
                     runtime::NetworkShape::stacked(512, 512, 2, 40)})
    {
        mf.calibrate(seqs(4, 8, 5));
        const auto ladder = mf.calibration().ladder();
        mf.setThresholds(ladder[ladder.size() / 2]);
        path_ = tmpPath("engine");
        std::remove(path_.c_str());
    }
    ~BackendWarmStateTest() override { std::remove(path_.c_str()); }

    serve::InferenceEngine::Options engineOptions(
        const std::string &backendId) const
    {
        serve::InferenceEngine::Options o;
        o.maxBatch = 8;
        o.workers = 2;
        o.plan = runtime::PlanKind::Combined;
        o.backendId = backendId;
        return o;
    }

    nn::LstmModel model;
    core::MemoryFriendlyLstm mf;
    std::string path_;
};

TEST_F(BackendWarmStateTest, WrongBackendWarmStateRejectedAsStale)
{
    {
        serve::InferenceEngine engine(mf, engineOptions("tx1"));
        serve::saveEngineState(engine, path_);
    }
    const serve::EngineWarmState warm = serve::loadEngineState(path_);
    EXPECT_EQ(warm.backendId, "tx1");

    try {
        serve::InferenceEngine engine(mf, engineOptions("dp4a"), warm);
        FAIL() << "warm state for tx1 accepted under dp4a";
    } catch (const io::ArtifactError &e) {
        EXPECT_EQ(e.kind(), io::ErrorKind::Stale);
    }

    // The recorded backend adopts it.
    serve::InferenceEngine restarted(mf, engineOptions("tx1"), warm);
    EXPECT_EQ(restarted.exportWarmState().backendId, "tx1");
}

// --- Governor precision-switch accounting ---------------------------

TEST(TwinRebuild, MixedQuantLadderWalkIsCountedAndTimed)
{
    nn::LstmModel model(clsConfig(), 77);
    core::MemoryFriendlyLstm mf(
        model, {hw::registry().get("tx1").config,
                runtime::NetworkShape::stacked(512, 512, 2, 40)});
    mf.calibrate(seqs(4, 8, 5));
    auto ladder = mf.calibration().ladder();
    ASSERT_GE(ladder.size(), 2u);
    // Degrading one rung flips precision: every governor step across
    // this edge must rebuild the runner's quant twin.
    for (std::size_t r = ladder.size() / 2; r < ladder.size(); ++r)
        ladder[r].quant = quant::QuantMode::Int8;
    mf.setThresholds(ladder.front());
    for (const auto &s : seqs(4, 8, 11))
        mf.runner().classify(s);

    serve::InferenceEngine::Options opts;
    opts.maxBatch = 2;
    opts.workers = 1;
    opts.governorLadder = ladder;
    opts.planningSequences = seqs(2, 8, 5);
    // A hair-trigger governor: any queue at all steps the ladder, so
    // the single worker is guaranteed to cross the precision edge
    // while the backlog drains.
    opts.governor.highQueuePerWorker = 0.5;
    opts.governor.lowQueuePerWorker = 0.1;
    opts.governor.dwellTicks = 1;
    serve::InferenceEngine engine(mf, opts);

    const auto inputs = seqs(60, 10, 61);
    serve::Session session = engine.session();
    std::vector<std::future<serve::Response>> futures;
    for (const auto &s : inputs)
        futures.push_back(session.infer(s));
    for (auto &f : futures)
        f.get();
    engine.shutdown();

    const obs::Counter *switches =
        engine.observer().metrics().findCounter(
            "serve.precision_switch_total");
    const obs::Histogram *rebuilds =
        engine.observer().metrics().findHistogram(
            "serve.twin_rebuild_ms");
    ASSERT_NE(switches, nullptr);
    ASSERT_NE(rebuilds, nullptr);
    // The ladder walked across the int8 edge at least once, and every
    // counted switch has a matching timed rebuild.
    EXPECT_GE(switches->value(), 1.0);
    EXPECT_EQ(static_cast<double>(rebuilds->count()),
              switches->value());
}

TEST(TwinRebuild, MetricsPreRegisteredAtZero)
{
    // The surface exists even before any switch (dashboards join on
    // the series, so absence must mean "engine without governor", not
    // "no switch yet").
    nn::LstmModel model(clsConfig(), 77);
    core::MemoryFriendlyLstm mf(
        model, {hw::registry().get("tx1").config,
                runtime::NetworkShape::stacked(512, 512, 2, 40)});
    mf.calibrate(seqs(4, 8, 5));
    const auto ladder = mf.calibration().ladder();
    mf.setThresholds(ladder[ladder.size() / 2]);

    serve::InferenceEngine::Options opts;
    opts.maxBatch = 4;
    opts.workers = 1;
    opts.plan = runtime::PlanKind::Combined;
    serve::InferenceEngine engine(mf, opts);
    engine.shutdown();

    const obs::Histogram *rebuilds =
        engine.observer().metrics().findHistogram(
            "serve.twin_rebuild_ms");
    ASSERT_NE(rebuilds, nullptr);
    EXPECT_EQ(rebuilds->count(), 0u);
}

} // namespace
