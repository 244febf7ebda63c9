/**
 * @file
 * End-to-end tests for the batched inference engine: per-request
 * outputs must be bit-identical to running each sequence alone
 * (batching is a timing-side transform only), and the simulated
 * weight-matrix DRAM bytes per sequence must decrease monotonically as
 * the batch dimension grows 1..8 (the serving-time weight-reuse
 * guarantee).
 */

#include <gtest/gtest.h>

#include <future>
#include <set>
#include <utility>
#include <vector>

#include "serve/engine.hh"
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

class EngineTest : public ::testing::Test
{
  protected:
    EngineTest()
        : model(clsConfig(), 77),
          mf(model, {gpu::GpuConfig::tegraX1(),
                     runtime::NetworkShape::stacked(512, 512, 2, 40)})
    {
        mf.calibrate(seqs(4, 8, 5));
        const auto ladder = mf.calibration().ladder();
        mf.setThresholds(ladder[ladder.size() / 2]);
        // Populate the division/skip statistics the planner projects.
        for (const auto &s : seqs(4, 8, 11))
            mf.runner().classify(s);
    }

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
};

TEST_F(EngineTest, BatchedOutputsBitIdenticalToSolo)
{
    // Solo reference: a private runner with the same thresholds and
    // calibration, one sequence at a time.
    core::ApproxRunner solo = mf.runner();
    const auto inputs = seqs(16, 12, 23);
    std::vector<tensor::Vector> expected;
    for (const auto &s : inputs)
        expected.push_back(solo.classify(s));

    serve::InferenceEngine engine(mf, engineOptions());
    serve::Session session = engine.session();
    std::vector<std::future<serve::Response>> futures;
    for (const auto &s : inputs)
        futures.push_back(session.infer(s));

    for (std::size_t i = 0; i < futures.size(); ++i) {
        const serve::Response r = futures[i].get();
        EXPECT_EQ(r.status, serve::Status::Ok) << "request " << i;
        EXPECT_TRUE(r.executed);
        EXPECT_TRUE(r.deadlineMet());
        EXPECT_EQ(r.logits, expected[i]) << "request " << i;
        EXPECT_GE(r.batch, 1u);
        EXPECT_LE(r.batch, 8u);
        EXPECT_GT(r.weightDramBytesPerSeq, 0.0);
        EXPECT_GT(r.simBatchMs, 0.0);
        EXPECT_GE(r.latencyMs, r.queueMs);
    }
}

TEST_F(EngineTest, WeightDramPerSequenceDecreasesMonotonically)
{
    serve::InferenceEngine engine(mf, engineOptions());
    const runtime::NetworkExecutor ex(mf.config().gpu);

    double prev = 0.0;
    for (std::size_t b = 1; b <= 8; ++b) {
        const runtime::RunReport rep =
            ex.run(runtime::RunRequest::network(mf.config().timingShape,
                                                engine.plan(), b));
        EXPECT_EQ(rep.batch, b);
        const double per_seq = rep.weightDramBytesPerSequence();
        EXPECT_GT(per_seq, 0.0);
        if (b > 1) {
            EXPECT_LT(per_seq, prev)
                << "batch " << b << " must amortise weights further";
        }
        prev = per_seq;
    }
}

TEST_F(EngineTest, TimingRunSimulatedOncePerRungAndBatch)
{
    obs::Observer observer;
    auto opts = engineOptions();
    opts.observer = &observer;
    serve::InferenceEngine engine(mf, opts);
    const obs::MetricsRegistry &m = observer.metrics();
    const auto count = [&m](const char *name) {
        const obs::Counter *c = m.findCounter(name);
        return c ? c->value() : 0.0;
    };
    // Planning in the constructor may already have run the executor.
    const double runs_at_start = count("executor.runs");
    ASSERT_NE(m.findCounter("serve.timing_sims"), nullptr);
    EXPECT_EQ(count("serve.timing_sims"), 0.0);

    // Bursts of mixed sizes, each drained before the next, so batch
    // sizes repeat: more batches than there are (rung, batch) pairs.
    std::vector<serve::Response> responses;
    std::uint64_t seed = 100;
    for (std::size_t burst : {3, 1, 5, 3, 8, 1, 2, 5, 3, 8, 1, 4}) {
        std::vector<std::future<serve::Response>> futures;
        for (const auto &s : seqs(burst, 10, seed++))
            futures.push_back(engine.submit({s, 0, 0.0}));
        for (auto &f : futures)
            responses.push_back(f.get());
    }

    const runtime::NetworkExecutor fresh(mf.config().gpu);
    std::set<std::pair<std::size_t, std::size_t>> distinct;
    for (const serve::Response &r : responses) {
        ASSERT_EQ(r.status, serve::Status::Ok);
        distinct.insert({r.rung, r.batch});
        const runtime::RunReport rep =
            fresh.run(runtime::RunRequest::network(
                mf.config().timingShape, engine.planAt(r.rung), r.batch));
        EXPECT_EQ(r.simBatchMs, rep.result.timeUs / 1e3)
            << "batch " << r.batch;
        EXPECT_EQ(r.weightDramBytesPerSeq,
                  rep.weightDramBytesPerSequence())
            << "batch " << r.batch;
    }

    const double sims = count("serve.timing_sims");
    const double batches = count("serve.batches");
    EXPECT_EQ(sims, static_cast<double>(distinct.size()));
    EXPECT_EQ(count("executor.runs") - runs_at_start,
              static_cast<double>(distinct.size()));
    EXPECT_LT(sims, batches);
}

TEST_F(EngineTest, BurstFillsBatchesAndCountsThem)
{
    auto opts = engineOptions();
    opts.workers = 1;  // deterministic consumer side
    serve::InferenceEngine engine(mf, opts);
    serve::Session session = engine.session();

    const auto inputs = seqs(24, 10, 31);
    std::vector<std::future<serve::Response>> futures;
    for (const auto &s : inputs)
        futures.push_back(session.infer(s));
    for (auto &f : futures)
        f.get();

    const auto st = engine.stats();
    EXPECT_EQ(st.submitted, 24u);
    EXPECT_EQ(st.completed, 24u);
    EXPECT_GE(st.batches, 3u);  // 24 requests / maxBatch 8
    EXPECT_LE(st.maxBatchObserved, 8u);
    EXPECT_GE(st.maxBatchObserved, 1u);
    EXPECT_GT(st.meanBatchSize, 0.0);
    EXPECT_GT(engine.latencyQuantileMs(0.5), 0.0);
    EXPECT_GE(engine.latencyQuantileMs(0.99),
              engine.latencyQuantileMs(0.5));
}

TEST_F(EngineTest, LanguageModelOutputsBitIdentical)
{
    nn::ModelConfig cfg = clsConfig();
    cfg.task = nn::TaskKind::LanguageModel;
    cfg.numClasses = 0;
    nn::LstmModel lm(cfg, 99);
    core::MemoryFriendlyLstm lm_mf(
        lm, {gpu::GpuConfig::tegraX1(),
             runtime::NetworkShape::stacked(512, 512, 2, 40)});
    lm_mf.calibrate(seqs(4, 8, 5));
    lm_mf.setThresholds(lm_mf.calibration().ladder()[5]);

    core::ApproxRunner solo = lm_mf.runner();
    const auto inputs = seqs(9, 10, 41);

    serve::InferenceEngine::Options opts;
    opts.maxBatch = 4;
    opts.workers = 2;
    opts.plan = runtime::PlanKind::Baseline;  // plan needs no stats
    serve::InferenceEngine engine(lm_mf, opts);

    std::vector<std::future<serve::Response>> futures;
    for (const auto &s : inputs)
        futures.push_back(engine.submit({s, 0, 0.0}));
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const serve::Response r = futures[i].get();
        const auto expected = solo.lmLogits(inputs[i]);
        ASSERT_EQ(r.stepLogits.size(), expected.size());
        for (std::size_t t = 0; t < expected.size(); ++t)
            EXPECT_EQ(r.stepLogits[t], expected[t])
                << "request " << i << " step " << t;
    }
}

TEST_F(EngineTest, RejectsEmptyTokensAndZeroWorkers)
{
    auto opts = engineOptions();
    opts.workers = 0;
    EXPECT_THROW(serve::InferenceEngine(mf, opts),
                 std::invalid_argument);

    serve::InferenceEngine engine(mf, engineOptions());
    EXPECT_THROW(engine.submit({{}, 0, 0.0}), std::invalid_argument);
}

TEST_F(EngineTest, ShutdownDrainsThenRejects)
{
    serve::InferenceEngine engine(mf, engineOptions());
    auto fut = engine.submit({seqs(1, 10, 51).front(), 0, 0.0});
    engine.shutdown();
    // Work queued before shutdown still completes.
    EXPECT_NO_THROW(fut.get());
    EXPECT_THROW(engine.submit({seqs(1, 10, 52).front(), 0, 0.0}),
                 std::runtime_error);
    engine.shutdown();  // idempotent
}

TEST_F(EngineTest, ImpossibleDeadlineIsReportedMissed)
{
    serve::InferenceEngine engine(mf, engineOptions());
    serve::Session session = engine.session(3);
    EXPECT_EQ(session.priority(), 3);

    const serve::Response r =
        session.infer(seqs(1, 10, 61).front(), 1e-9).get();
    EXPECT_EQ(r.status, serve::Status::ShedDeadline);
    EXPECT_FALSE(r.deadlineMet());
    const auto st = engine.stats();
    EXPECT_GE(st.deadlineMisses, 1u);
    // The miss is either shed before execution or a late completion —
    // the two buckets partition deadlineMisses exactly.
    EXPECT_EQ(st.shedBeforeRun + st.lateCompletions, st.deadlineMisses);
}

TEST_F(EngineTest, RejectNewAdmissionResolvesRejectedCapacity)
{
    auto opts = engineOptions();
    opts.workers = 1;
    opts.queueCapacity = 2;
    opts.admission = serve::AdmissionPolicy::RejectNew;
    serve::InferenceEngine engine(mf, opts);
    serve::Session session = engine.session();

    // Burst far past capacity: every future must still resolve with a
    // terminal status, and at least the overflow must be rejected.
    const auto inputs = seqs(32, 10, 71);
    std::vector<std::future<serve::Response>> futures;
    for (const auto &s : inputs)
        futures.push_back(session.infer(s));

    std::size_t ok = 0;
    std::size_t rejected = 0;
    for (auto &f : futures) {
        const serve::Response r = f.get();
        if (r.status == serve::Status::Ok) {
            ++ok;
            EXPECT_TRUE(r.executed);
        } else {
            ASSERT_EQ(r.status, serve::Status::RejectedCapacity);
            EXPECT_FALSE(r.executed);
            ++rejected;
        }
    }
    EXPECT_EQ(ok + rejected, inputs.size());
    EXPECT_GE(ok, 1u);  // something was served

    const auto st = engine.stats();
    EXPECT_EQ(st.completed, inputs.size());
    EXPECT_EQ(st.rejected, rejected);
    EXPECT_LE(st.queueHighWater, 2u);  // capacity honoured
}

TEST_F(EngineTest, GovernorLadderServesEveryRungBitIdentical)
{
    const auto full = mf.calibration().ladder();
    auto opts = engineOptions();
    opts.governorLadder = {full[2], full[5], full[8]};
    opts.planningSequences = seqs(4, 8, 11);
    serve::InferenceEngine engine(mf, opts);

    ASSERT_EQ(engine.ladder().size(), 3u);
    EXPECT_EQ(engine.activeRung(), 0u);  // starts at the accurate end
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_EQ(engine.planAt(r).kind, runtime::PlanKind::Combined);

    serve::Session session = engine.session();
    const auto inputs = seqs(8, 10, 81);
    std::vector<std::future<serve::Response>> futures;
    for (const auto &s : inputs)
        futures.push_back(session.infer(s));

    // Under light load the governor never escalates, so outputs match
    // a solo runner at rung 0's thresholds.
    core::ApproxRunner solo = mf.runner();
    solo.setThresholds(full[2].alphaInter, full[2].alphaIntra);
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const serve::Response r = futures[i].get();
        ASSERT_EQ(r.status, serve::Status::Ok);
        EXPECT_EQ(r.rung, 0u);
        EXPECT_EQ(r.logits, solo.classify(inputs[i])) << "request " << i;
    }
    EXPECT_EQ(engine.stats().governorStepsUp, 0u);
}

} // namespace
