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

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "serve/engine.hh"
#include "support/fault.hh"
#include "support/metrics.hh"
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

/**
 * Scripted faults plus two hooks that make a one-worker engine's
 * schedule deterministic: the worker parks at the timing site of the
 * batch passed to holdBatch() until release(), and the first
 * functional attempt of the request passed to sleepOnRun() sleeps
 * (after both of its deadline checks have passed).
 */
class HoldingInjector : public test::ScriptedFaultInjector
{
  public:
    void holdBatch(std::uint64_t ordinal)
    {
        std::lock_guard<std::mutex> lock(gateMu_);
        hold_ = ordinal;
        held_ = false;
    }

    /** Block until the worker parks at the held batch. */
    void waitHeld()
    {
        std::unique_lock<std::mutex> lock(gateMu_);
        gateCv_.wait(lock, [&] { return held_; });
    }

    void release()
    {
        {
            std::lock_guard<std::mutex> lock(gateMu_);
            hold_.reset();
        }
        gateCv_.notify_all();
    }

    void sleepOnRun(serve::RequestId id, double ms)
    {
        std::lock_guard<std::mutex> lock(gateMu_);
        sleepId_ = id;
        sleepMs_ = ms;
    }

    bool shouldFail(const serve::FaultSite &site) override
    {
        using Kind = serve::FaultSite::Kind;
        double sleep_ms = 0.0;
        {
            std::unique_lock<std::mutex> lock(gateMu_);
            if (site.kind == Kind::BatchRun && site.attempt == 0 &&
                hold_ == site.batchOrdinal) {
                held_ = true;
                gateCv_.notify_all();
                gateCv_.wait(lock, [&] { return !hold_; });
            }
            if (site.kind == Kind::RequestRun && site.attempt == 0 &&
                site.requestId == sleepId_)
                sleep_ms = sleepMs_;
        }
        if (sleep_ms > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(sleep_ms));
        return ScriptedFaultInjector::shouldFail(site);
    }

  private:
    std::mutex gateMu_;
    std::condition_variable gateCv_;
    std::optional<std::uint64_t> hold_;
    bool held_ = false;
    serve::RequestId sleepId_ = 0;
    double sleepMs_ = 0.0;
};

/**
 * Every Stats field equals its series in @p m's JSON dump (a series
 * the dump lacks reads 0); the batch fields come from the
 * serve.batch_size histogram, and Ok responses are what completed
 * leaves after the other three statuses.
 */
void
expectStatsMatchDump(const serve::InferenceEngine::Stats &st,
                     const obs::MetricsRegistry &m)
{
    const auto series = [&m](const char *name) {
        return test::dumpedCounter(m, name).value_or(0.0);
    };
    const auto as_double = [](std::uint64_t v) {
        return static_cast<double>(v);
    };
    EXPECT_EQ(as_double(st.submitted), series("serve.requests"));
    EXPECT_EQ(as_double(st.completed), series("serve.responses"));
    EXPECT_EQ(as_double(st.ok),
              series("serve.responses") - series("serve.deadline_misses") -
                  series("serve.rejected_capacity") -
                  series("serve.failed"));
    EXPECT_EQ(as_double(st.batches), series("serve.batches"));
    EXPECT_EQ(as_double(st.deadlineMisses),
              series("serve.deadline_misses"));
    EXPECT_EQ(as_double(st.shedBeforeRun), series("serve.shed_deadline"));
    EXPECT_EQ(as_double(st.lateCompletions),
              series("serve.late_completions"));
    EXPECT_EQ(as_double(st.rejected), series("serve.rejected_capacity"));
    EXPECT_EQ(as_double(st.evicted), series("serve.evicted"));
    EXPECT_EQ(as_double(st.failed), series("serve.failed"));
    EXPECT_EQ(as_double(st.retries), series("serve.retries"));
    EXPECT_EQ(as_double(st.workerRestarts),
              series("serve.worker_restarts"));
    const auto sizes = test::dumpedHistogram(m, "serve.batch_size");
    ASSERT_TRUE(sizes.has_value());
    EXPECT_EQ(st.batches, sizes->count);
    EXPECT_EQ(static_cast<double>(st.maxBatchObserved), sizes->max);
    EXPECT_DOUBLE_EQ(st.meanBatchSize,
                     sizes->count ? sizes->sum / as_double(sizes->count)
                                  : 0.0);
}

/** Observations in histogram @p name of @p m's dump. */
std::uint64_t
histogramCount(const obs::MetricsRegistry &m, const char *name)
{
    const auto h = test::dumpedHistogram(m, name);
    return h ? h->count : 0;
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
        return test::dumpedCounter(m, name).value_or(0.0);
    };
    // Planning in the constructor may already have run the executor.
    const double runs_at_start = count("executor.runs");
    EXPECT_EQ(test::dumpedCounter(m, "serve.timing_sims"), 0.0);

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
    // The refused submit counted nothing.
    EXPECT_EQ(engine.stats().submitted, 1u);
    EXPECT_EQ(engine.stats().completed, 1u);
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

TEST_F(EngineTest, ExpiredRequestIsShedBeforeItsBatchRuns)
{
    // Deadline shedding happens when the worker forms a batch: an
    // expired request never occupies a batch slot, so a lone expired
    // request leaves no batch (and no timing run) behind.
    serve::InferenceEngine engine(mf, engineOptions());
    const serve::Response r =
        engine.session().infer(seqs(1, 10, 62).front(), 1e-9).get();
    EXPECT_EQ(r.status, serve::Status::ShedDeadline);
    const auto st = engine.stats();
    EXPECT_EQ(st.shedBeforeRun, 1u);
    EXPECT_EQ(st.batches, 0u);
}

TEST_F(EngineTest, RequestExpiringInsideItsBatchIsShedUnexecuted)
{
    // The second shed site: a request still live when its batch forms
    // expires while an earlier sibling runs, and is shed before it
    // spends functional compute.
    HoldingInjector inj;
    auto opts = engineOptions();
    opts.workers = 1;
    opts.faultInjector = &inj;
    serve::InferenceEngine engine(mf, opts);
    const auto inputs = seqs(3, 10, 64);

    // Park the worker on batch 0 so ids 2 and 3 queue up together and
    // form batch 1; id 2 then runs for 400 ms, past id 3's 200 ms
    // deadline.
    inj.holdBatch(0);
    std::future<serve::Response> first = engine.submit({inputs[0], 0, 0.0});
    inj.waitHeld();
    std::future<serve::Response> slow = engine.submit({inputs[1], 0, 0.0});
    std::future<serve::Response> expiring =
        engine.submit({inputs[2], 0, 200.0});
    inj.sleepOnRun(2, 400.0);
    inj.release();

    EXPECT_EQ(first.get().status, serve::Status::Ok);
    const serve::Response s = slow.get();
    EXPECT_EQ(s.status, serve::Status::Ok);
    EXPECT_EQ(s.batch, 2u);
    const serve::Response r = expiring.get();
    EXPECT_EQ(r.status, serve::Status::ShedDeadline);
    EXPECT_FALSE(r.executed);
    const auto st = engine.stats();
    EXPECT_EQ(st.shedBeforeRun, 1u);
    EXPECT_EQ(st.lateCompletions, 0u);
    EXPECT_EQ(st.batches, 2u);
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

TEST_F(EngineTest, StatsEqualTheirSeriesOnEveryTerminalPath)
{
    // One worker and a gate at the timing site make the schedule
    // exact: every terminal path resolves a known number of requests,
    // and the stage histograms count exactly the stages each reached.
    HoldingInjector inj;
    obs::Observer observer;
    auto opts = engineOptions();
    opts.workers = 1;
    opts.maxBatch = 4;
    opts.queueCapacity = 2;
    opts.admission = serve::AdmissionPolicy::RejectNew;
    opts.faultInjector = &inj;
    opts.observer = &observer;
    serve::InferenceEngine engine(mf, opts);
    const auto in = seqs(9, 10, 91);
    std::vector<std::future<serve::Response>> futs;
    const auto submit = [&](double deadline_ms) {
        futs.push_back(
            engine.submit({in[futs.size()], 0, deadline_ms}));
    };

    // Batch 0 (id 1) parks at its timing site while id 2 arrives
    // already expired, id 3 fills the queue and id 4 finds it full.
    // All 1 + kMaxRetries timing attempts of batch 0 fault (id 1
    // fails after its retries); so do all functional attempts of id 3.
    inj.failBatch(0, 1 + serve::kMaxRetries);
    inj.failRequest(3, 1 + serve::kMaxRetries);
    inj.holdBatch(0);
    submit(0.0);
    inj.waitHeld();
    submit(1e-9);
    submit(0.0);
    submit(0.0);
    inj.release();
    for (std::size_t i = 0; i < 4; ++i)
        futs[i].wait();

    // Id 5 is served; id 6 passes both deadline checks, then its run
    // outlasts the deadline: a late completion.
    submit(0.0);
    futs.back().wait();
    inj.sleepOnRun(6, 250.0);
    submit(200.0);
    futs.back().wait();

    // Kill while batch 4 (id 7) is in its timing run with ids 8 and 9
    // queued: the in-flight batch finishes, the queued pair is flushed.
    inj.holdBatch(4);
    submit(0.0);
    inj.waitHeld();
    submit(0.0);
    submit(0.0);
    std::thread killer([&] { engine.kill(); });
    while (!engine.killed())
        std::this_thread::yield();
    inj.release();
    killer.join();

    std::vector<serve::Response> r;
    for (auto &f : futs)
        r.push_back(f.get());
    using serve::Status;
    EXPECT_EQ(r[0].status, Status::Failed);
    EXPECT_EQ(r[0].error.rfind("batch timing run failed", 0), 0u);
    EXPECT_EQ(r[1].status, Status::ShedDeadline);
    EXPECT_FALSE(r[1].executed);
    EXPECT_EQ(r[2].status, Status::Failed);
    EXPECT_EQ(r[2].retries, serve::kMaxRetries);
    EXPECT_EQ(r[3].status, Status::RejectedCapacity);
    EXPECT_EQ(r[4].status, Status::Ok);
    EXPECT_EQ(r[5].status, Status::ShedDeadline);
    EXPECT_TRUE(r[5].executed);
    EXPECT_EQ(r[6].status, Status::Ok);
    for (std::size_t i : {7, 8}) {
        EXPECT_EQ(r[i].status, Status::Failed);
        EXPECT_EQ(r[i].error, serve::kEngineKilledError);
    }

    const serve::InferenceEngine::Stats st = engine.stats();
    EXPECT_EQ(st.submitted, 9u);
    EXPECT_EQ(st.completed, 9u);
    EXPECT_EQ(st.ok, 2u);
    EXPECT_EQ(st.batches, 4u);  // batch 0 never got its timing run
    EXPECT_EQ(st.deadlineMisses, 2u);
    EXPECT_EQ(st.shedBeforeRun, 1u);
    EXPECT_EQ(st.lateCompletions, 1u);
    EXPECT_EQ(st.rejected, 1u);
    EXPECT_EQ(st.evicted, 0u);
    EXPECT_EQ(st.failed, 4u);
    EXPECT_EQ(st.retries, 2u * serve::kMaxRetries);
    EXPECT_EQ(st.workerRestarts, 0u);
    EXPECT_EQ(st.governorStepsUp + st.governorStepsDown, 0u);
    EXPECT_EQ(st.queueHighWater, 2u);
    EXPECT_EQ(st.maxBatchObserved, 1u);
    EXPECT_DOUBLE_EQ(st.meanBatchSize, 1.0);
    expectStatsMatchDump(st, observer.metrics());

    // Queue time for every response; batch wait once a request reached
    // a batch (ids 1, 3, 5, 6, 7); run time and end-to-end latency
    // once its functional run was attempted (ids 3, 5, 6, 7).
    const obs::MetricsRegistry &m = observer.metrics();
    EXPECT_EQ(histogramCount(m, "serve.queue_ms"), 9u);
    EXPECT_EQ(histogramCount(m, "serve.batch_wait_ms"), 5u);
    EXPECT_EQ(histogramCount(m, "serve.exec_ms"), 4u);
    EXPECT_EQ(histogramCount(m, "serve.latency_ms"), 4u);
    EXPECT_EQ(histogramCount(m, "serve.batch_size"), 4u);
    EXPECT_EQ(histogramCount(m, "serve.twin_rebuild_ms"), 0u);
    EXPECT_EQ(test::dumpedCounter(m, "serve.timing_sims"), 1.0);
    EXPECT_EQ(test::dumpedCounter(m, "serve.faults_injected"),
              static_cast<double>(inj.injected()));
    EXPECT_EQ(inj.injected(), 2u * (1 + serve::kMaxRetries));

    // One completion marker per response: requests that never reached
    // a batch (ids 2, 4, 8, 9) on the "unserved" track, the rest on
    // the worker's.
    std::size_t on_worker = 0, unserved = 0;
    for (const obs::TraceSpan &s : observer.tracer().spans()) {
        if (s.pid != obs::SpanTracer::kServePid || s.name != "complete")
            continue;
        ++(s.tid == 0 ? on_worker : unserved);
    }
    EXPECT_EQ(on_worker, 5u);
    EXPECT_EQ(unserved, 4u);

    // DropOldest: with batch 0 (id 1) parked, id 3 evicts id 2.
    HoldingInjector gate;
    obs::Observer drop_observer;
    opts.queueCapacity = 1;
    opts.admission = serve::AdmissionPolicy::DropOldest;
    opts.faultInjector = &gate;
    opts.observer = &drop_observer;
    serve::InferenceEngine drop(mf, opts);
    gate.holdBatch(0);
    auto first = drop.submit({in[0], 0, 0.0});
    gate.waitHeld();
    auto victim = drop.submit({in[1], 0, 0.0});
    auto last = drop.submit({in[2], 0, 0.0});
    EXPECT_EQ(victim.get().status, Status::RejectedCapacity);
    gate.release();
    EXPECT_EQ(first.get().status, Status::Ok);
    EXPECT_EQ(last.get().status, Status::Ok);
    drop.shutdown();

    const serve::InferenceEngine::Stats ds = drop.stats();
    EXPECT_EQ(ds.submitted, 3u);
    EXPECT_EQ(ds.completed, 3u);
    EXPECT_EQ(ds.ok, 2u);
    EXPECT_EQ(ds.batches, 2u);
    EXPECT_EQ(ds.rejected, 1u);
    EXPECT_EQ(ds.evicted, 1u);
    EXPECT_EQ(ds.deadlineMisses + ds.failed + ds.retries, 0u);
    EXPECT_EQ(ds.queueHighWater, 1u);
    expectStatsMatchDump(ds, drop_observer.metrics());
    const obs::MetricsRegistry &dm = drop_observer.metrics();
    EXPECT_EQ(histogramCount(dm, "serve.queue_ms"), 3u);
    EXPECT_EQ(histogramCount(dm, "serve.batch_wait_ms"), 2u);
    EXPECT_EQ(histogramCount(dm, "serve.exec_ms"), 2u);
    EXPECT_EQ(histogramCount(dm, "serve.latency_ms"), 2u);
    EXPECT_EQ(histogramCount(dm, "serve.batch_size"), 2u);
}

} // namespace
