/**
 * @file
 * Engine warm-restart tests (DESIGN.md §11): a restarted engine built
 * from persisted warm state must serve bit-identically to the engine
 * that saved it — same ladder, same plans, same logits — and warm
 * state recorded against different weights or options must be rejected
 * as stale rather than silently adopted.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/persist.hh"
#include "serve/engine.hh"
#include "sched/persist.hh"
#include "serve/persist.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;

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

std::vector<serve::Response>
serveResponses(serve::InferenceEngine &engine,
               const std::vector<std::vector<std::int32_t>> &inputs)
{
    serve::Session session = engine.session();
    std::vector<std::future<serve::Response>> futures;
    for (const auto &s : inputs)
        futures.push_back(session.infer(s));
    std::vector<serve::Response> out;
    for (auto &f : futures) {
        out.push_back(f.get());
        EXPECT_EQ(out.back().status, serve::Status::Ok);
    }
    return out;
}

std::vector<tensor::Vector>
serveAll(serve::InferenceEngine &engine,
         const std::vector<std::vector<std::int32_t>> &inputs)
{
    std::vector<tensor::Vector> out;
    for (serve::Response &r : serveResponses(engine, inputs))
        out.push_back(std::move(r.logits));
    return out;
}

class WarmRestartTest : public ::testing::Test
{
  protected:
    WarmRestartTest()
        : model(clsConfig(), 77),
          mf(model, {gpu::GpuConfig::tegraX1(),
                     runtime::NetworkShape::stacked(512, 512, 2, 40)})
    {
        mf.calibrate(seqs(4, 8, 5));
        const auto ladder = mf.calibration().ladder();
        mf.setThresholds(ladder[ladder.size() / 2]);
        for (const auto &s : seqs(4, 8, 11))
            mf.runner().classify(s);

        // Per-process name: ctest runs test cases concurrently.
        path_ = (std::filesystem::temp_directory_path() /
                 ("mflstm_warm_restart_test_" +
                  std::to_string(::getpid()) + ".bin"))
                    .string();
        std::remove(path_.c_str());
    }
    ~WarmRestartTest() override { std::remove(path_.c_str()); }

    serve::InferenceEngine::Options engineOptions() const
    {
        serve::InferenceEngine::Options o;
        o.maxBatch = 8;
        o.workers = 2;
        o.plan = runtime::PlanKind::Combined;
        return o;
    }

    nn::LstmModel model;
    core::MemoryFriendlyLstm mf;
    std::string path_;
};

TEST_F(WarmRestartTest, WarmStartServesBitIdenticallyToCold)
{
    const auto inputs = seqs(12, 10, 23);

    serve::InferenceEngine cold(mf, engineOptions());
    const std::vector<serve::Response> expected =
        serveResponses(cold, inputs);
    serve::saveEngineState(cold, path_);
    cold.shutdown();

    // "Restart": a fresh engine adopting the persisted state instead
    // of rebuilding its plans.
    const serve::EngineWarmState warm = serve::loadEngineState(path_);
    EXPECT_EQ(warm.modelWeightsCrc, core::modelWeightsCrc(model));
    serve::InferenceEngine restarted(mf, engineOptions(), warm);

    // Identical plans were adopted, not rebuilt...
    const serve::EngineWarmState after = restarted.exportWarmState();
    EXPECT_EQ(after.ladder, warm.ladder);
    EXPECT_EQ(after.plans, warm.plans);
    EXPECT_EQ(after.shape, warm.shape);

    // ...and the served logits and simulated batch times are
    // bit-identical. Batch sizes depend on thread scheduling, so both
    // engines' times are checked against a fresh run at each batch.
    const runtime::NetworkExecutor fresh(mf.config().gpu);
    const auto fresh_ms = [&](const serve::Response &r) {
        return fresh
                   .run(runtime::RunRequest::network(
                       warm.shape, warm.plans.at(r.rung), r.batch))
                   .result.timeUs /
               1e3;
    };
    const std::vector<serve::Response> actual =
        serveResponses(restarted, inputs);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        EXPECT_EQ(actual[i].logits, expected[i].logits) << "request " << i;
        EXPECT_EQ(expected[i].simBatchMs, fresh_ms(expected[i]))
            << "cold request " << i;
        EXPECT_EQ(actual[i].simBatchMs, fresh_ms(actual[i]))
            << "warm request " << i;
    }
}

TEST_F(WarmRestartTest, DrainAndSaveStatePersistsLoadableState)
{
    const auto inputs = seqs(6, 10, 31);
    std::vector<tensor::Vector> expected;
    {
        serve::InferenceEngine engine(mf, engineOptions());
        expected = serveAll(engine, inputs);
        engine.drainAndSaveState(path_);
    }
    EXPECT_NO_THROW(serve::loadEngineState(path_));

    const serve::EngineWarmState warm = serve::loadEngineState(path_);
    serve::InferenceEngine restarted(mf, engineOptions(), warm);
    const std::vector<tensor::Vector> actual =
        serveAll(restarted, inputs);
    for (std::size_t i = 0; i < actual.size(); ++i)
        EXPECT_EQ(actual[i], expected[i]) << "request " << i;
}

TEST_F(WarmRestartTest, StaleStateForDifferentWeightsRejected)
{
    {
        serve::InferenceEngine engine(mf, engineOptions());
        serve::saveEngineState(engine, path_);
    }
    const serve::EngineWarmState warm = serve::loadEngineState(path_);

    const nn::LstmModel other(clsConfig(), 78);
    core::MemoryFriendlyLstm mf2(
        other, {gpu::GpuConfig::tegraX1(),
                runtime::NetworkShape::stacked(512, 512, 2, 40)});
    mf2.calibrate(seqs(4, 8, 5));
    try {
        serve::InferenceEngine engine(mf2, engineOptions(), warm);
        FAIL() << "warm state for different weights accepted";
    } catch (const io::ArtifactError &e) {
        EXPECT_EQ(e.kind(), io::ErrorKind::Stale);
    }
}

TEST_F(WarmRestartTest, StateForDifferentOptionsRejected)
{
    {
        serve::InferenceEngine engine(mf, engineOptions());
        serve::saveEngineState(engine, path_);
    }
    const serve::EngineWarmState warm = serve::loadEngineState(path_);

    serve::InferenceEngine::Options opts = engineOptions();
    opts.plan = runtime::PlanKind::InterCell;
    try {
        serve::InferenceEngine engine(mf, opts, warm);
        FAIL() << "warm state for different plan kind accepted";
    } catch (const io::ArtifactError &e) {
        EXPECT_EQ(e.kind(), io::ErrorKind::Stale);
    }
}

TEST_F(WarmRestartTest, CorruptStateFileRejectedAndCounted)
{
    {
        serve::InferenceEngine engine(mf, engineOptions());
        serve::saveEngineState(engine, path_);
    }
    const std::uintmax_t size = std::filesystem::file_size(path_);
    {
        std::fstream f(path_, std::ios::binary | std::ios::in |
                                  std::ios::out);
        f.seekg(static_cast<std::streamoff>(size - 3));
        char b = 0;
        f.read(&b, 1);
        b = static_cast<char>(b ^ 0x40);
        f.seekp(static_cast<std::streamoff>(size - 3));
        f.write(&b, 1);
    }

    obs::Observer obs;
    try {
        (void)serve::loadEngineState(path_, io::ArtifactLimits{},
                                     &obs);
        FAIL() << "corrupt engine state loaded";
    } catch (const io::ArtifactError &e) {
        EXPECT_EQ(e.kind(), io::ErrorKind::ChecksumMismatch);
    }
    EXPECT_EQ(obs.metrics()
                  .counter("artifact_load_rejected_total")
                  .value(),
              1.0);
}

TEST_F(WarmRestartTest, TruncatedStateFileRejected)
{
    {
        serve::InferenceEngine engine(mf, engineOptions());
        serve::saveEngineState(engine, path_);
    }
    std::filesystem::resize_file(
        path_, std::filesystem::file_size(path_) - 9);
    EXPECT_THROW(serve::loadEngineState(path_), io::ArtifactError);
    EXPECT_THROW(serve::loadEngineState(path_), io::ArtifactError);
}

TEST_F(WarmRestartTest, QuantModesSurviveSaveLoad)
{
    // The ladder's third coordinate and the per-layer precision of
    // every rung's plan both round-trip.
    serve::EngineWarmState state;
    state.modelWeightsCrc = 0x1234u;
    state.plan = runtime::PlanKind::Combined;
    state.shape.layers.push_back({8, 8, 4});
    state.ladder.push_back({0.0, 0.0, quant::QuantMode::Fp32});
    state.ladder.push_back({0.1, 0.2, quant::QuantMode::Int8});
    state.ladder.push_back({0.3, 0.4, quant::QuantMode::Int4});
    for (const core::ThresholdSet &set : state.ladder) {
        state.plans.push_back(runtime::ExecutionPlan::preset(
            runtime::PlanKind::Combined, 1, set.quant, {{2, 2}}, {0.5}));
    }
    serve::saveEngineState(state, path_);

    const serve::EngineWarmState loaded =
        serve::loadEngineState(path_);
    EXPECT_EQ(loaded.ladder, state.ladder);
    ASSERT_EQ(loaded.plans.size(), 3u);
    EXPECT_EQ(loaded.plans[1].layerSchedule(0).quant,
              quant::QuantMode::Int8);
    EXPECT_EQ(loaded.plans[2].layerSchedule(0).quant,
              quant::QuantMode::Int4);
    EXPECT_EQ(loaded.plans, state.plans);
}

TEST_F(WarmRestartTest, TunedPlansAndDecisionsSurviveSaveLoad)
{
    // The tuning-mode flag and a searched plan's per-layer
    // ScheduleDecisions round-trip.
    serve::EngineWarmState state;
    state.modelWeightsCrc = 0x5678u;
    state.plan = runtime::PlanKind::Combined;
    state.tunedPlans = true;
    state.shape.layers.push_back({8, 8, 4});
    state.ladder.push_back({0.1, 0.2, quant::QuantMode::Int8});

    runtime::ScheduleDecisions d;
    runtime::LayerSchedule ls;
    ls.skipPath = runtime::SkipPath::Software;
    ls.skipFraction = 0.3;
    ls.flagFusion = runtime::FlagFusion::FusedEpilogue;
    ls.quant = quant::QuantMode::Int8;
    d.layers.push_back(ls);
    state.plans.push_back(runtime::ExecutionPlan::fromDecisions(d));
    serve::saveEngineState(state, path_);

    const serve::EngineWarmState loaded =
        serve::loadEngineState(path_);
    EXPECT_TRUE(loaded.tunedPlans);
    ASSERT_EQ(loaded.plans.size(), 1u);
    EXPECT_EQ(loaded.plans[0].kind, runtime::PlanKind::Tuned);
    EXPECT_EQ(loaded.plans[0].decisions.layers, d.layers);
    EXPECT_EQ(loaded.plans, state.plans);
    EXPECT_NO_THROW(serve::loadEngineState(path_));
}

TEST_F(WarmRestartTest, TuningModeMismatchRejectedAsStale)
{
    {
        serve::InferenceEngine engine(mf, engineOptions());
        serve::saveEngineState(engine, path_);
    }
    const serve::EngineWarmState warm = serve::loadEngineState(path_);
    EXPECT_FALSE(warm.tunedPlans);

    // Untuned warm state must not be adopted by an engine asked to
    // serve searched plans (and vice versa): reject as Stale, retune.
    serve::InferenceEngine::Options opts = engineOptions();
    opts.tunePlans = true;
    try {
        serve::InferenceEngine engine(mf, opts, warm);
        FAIL() << "tuning-mode mismatch accepted";
    } catch (const io::ArtifactError &e) {
        EXPECT_EQ(e.kind(), io::ErrorKind::Stale);
    }
}

TEST_F(WarmRestartTest, FutureSchemaVersionRejected)
{
    {
        serve::InferenceEngine engine(mf, engineOptions());
        serve::saveEngineState(engine, path_);
    }
    // Re-wrap the valid fingerprint under a version this build predates
    // (one past the current v6) and under the retired v5: this build
    // reads exactly one version.
    const serve::EngineWarmState good = serve::loadEngineState(path_);
    for (std::uint32_t version : {7u, 5u}) {
        SCOPED_TRACE("version " + std::to_string(version));
        io::ArtifactWriter w(io::kSchemaEngineState, version);
        io::ByteWriter &f = w.chunk(io::fourcc('E', 'F', 'P', 'R'));
        f.u32(good.modelWeightsCrc);
        f.u32(static_cast<std::uint32_t>(good.plan));
        f.f64(good.pruneFraction);
        w.commit(path_);
        try {
            (void)serve::loadEngineState(path_);
            FAIL() << "schema version " << version << " accepted";
        } catch (const io::ArtifactError &e) {
            EXPECT_EQ(e.kind(), io::ErrorKind::BadVersion);
        }
    }
}

TEST_F(WarmRestartTest, UnknownQuantModeRejected)
{
    serve::EngineWarmState state;
    state.modelWeightsCrc = 1;
    state.plan = runtime::PlanKind::Baseline;
    state.shape.layers.push_back({8, 8, 4});
    state.ladder.push_back({0.0, 0.0, quant::QuantMode::Fp32});
    state.plans.push_back(runtime::ExecutionPlan::preset(
        runtime::PlanKind::Baseline, 1, quant::QuantMode::Fp32));
    serve::saveEngineState(state, path_);
    ASSERT_NO_THROW(serve::loadEngineState(path_));

    // Rewrite with an out-of-range mode in the ladder rung.
    io::ArtifactWriter w(io::kSchemaEngineState, 6);
    io::ByteWriter &f = w.chunk(io::fourcc('E', 'F', 'P', 'R'));
    f.u32(1);
    f.u32(static_cast<std::uint32_t>(runtime::PlanKind::Baseline));
    f.f64(0.0);
    f.u32(0);                       // not tuned
    f.str("");                      // no backend id
    io::ByteWriter &s = w.chunk(io::fourcc('E', 'S', 'H', 'P'));
    s.u64(1);
    s.u64(8);
    s.u64(8);
    s.u64(4);
    io::ByteWriter &l = w.chunk(io::fourcc('E', 'L', 'A', 'D'));
    l.u64(1);
    l.f64(0.0);
    l.f64(0.0);
    l.u32(99);  // no such QuantMode
    io::ByteWriter &p = w.chunk(io::indexedTag('E', 'P', 0));
    p.u32(static_cast<std::uint32_t>(runtime::PlanKind::Baseline));
    sched::writeDecisions(p, state.plans[0].decisions);
    w.commit(path_);
    try {
        (void)serve::loadEngineState(path_);
        FAIL() << "unknown quant mode accepted";
    } catch (const io::ArtifactError &e) {
        EXPECT_EQ(e.kind(), io::ErrorKind::Malformed);
    }
}

} // namespace
