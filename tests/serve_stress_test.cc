/**
 * @file
 * Stress / soak tests for the serving engine under overload
 * (DESIGN.md §10). An open-loop burst submits 2-4x the queue capacity
 * from several producer threads and the suite checks the engine-level
 * liveness contract:
 *
 *   - no deadlock: every submitted future resolves (get() returns);
 *   - exactly-once: the terminal statuses partition the submissions
 *     (ok + shed + rejected + failed == submitted == completed);
 *   - stats are monotonic while sampled concurrently with serving;
 *   - the governor escalates under sustained pressure and relaxes
 *     back to rung 0 when load subsides (hysteresis, no flapping).
 *
 * Registered under the ctest label "stress" so CI can run the slice
 * explicitly (`ctest -L stress`); the default parameters keep each
 * case inside a tier-1-friendly time budget. The main burst also dumps
 * the metrics registry as JSON (MFLSTM_STRESS_METRICS_JSON overrides
 * the path) so CI can publish the run as an artifact.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <future>
#include <thread>
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

class StressTest : public ::testing::Test
{
  protected:
    StressTest()
        : model(clsConfig(), 77),
          mf(model, {gpu::GpuConfig::tegraX1(),
                     runtime::NetworkShape::stacked(512, 512, 2, 40)})
    {
        mf.calibrate(seqs(4, 8, 5));
        const auto ladder = mf.calibration().ladder();
        mf.setThresholds(ladder[2]);
        for (const auto &s : seqs(4, 8, 11))
            mf.runner().classify(s);
    }

    nn::LstmModel model;
    core::MemoryFriendlyLstm mf;
};

/** Tally of terminal statuses across a burst. */
struct StatusTally
{
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> failed{0};

    void count(serve::Status s)
    {
        switch (s) {
        case serve::Status::Ok:
            ok.fetch_add(1);
            break;
        case serve::Status::ShedDeadline:
            shed.fetch_add(1);
            break;
        case serve::Status::RejectedCapacity:
            rejected.fetch_add(1);
            break;
        case serve::Status::Failed:
            failed.fetch_add(1);
            break;
        }
    }

    std::uint64_t total() const
    {
        return ok.load() + shed.load() + rejected.load() + failed.load();
    }
};

TEST_F(StressTest, OverloadBurstResolvesEveryFutureExactlyOnce)
{
    constexpr std::size_t kCapacity = 16;
    constexpr std::size_t kProducers = 4;
    constexpr std::size_t kPerProducer = 40;  // 160 total: 10x capacity

    serve::InferenceEngine::Options opts;
    opts.maxBatch = 8;
    opts.workers = 2;
    opts.plan = runtime::PlanKind::Combined;
    opts.queueCapacity = kCapacity;
    opts.admission = serve::AdmissionPolicy::RejectNew;
    serve::InferenceEngine engine(mf, opts);

    // Sample stats concurrently with the burst: every monotonic field
    // must only ever grow, and completed must never pass submitted.
    std::atomic<bool> stop{false};
    std::thread sampler([&] {
        serve::InferenceEngine::Stats prev;
        while (!stop.load()) {
            const auto st = engine.stats();
            ASSERT_GE(st.submitted, prev.submitted);
            ASSERT_GE(st.completed, prev.completed);
            ASSERT_GE(st.batches, prev.batches);
            ASSERT_GE(st.rejected, prev.rejected);
            ASSERT_GE(st.failed, prev.failed);
            ASSERT_GE(st.deadlineMisses, prev.deadlineMisses);
            ASSERT_LE(st.completed, st.submitted);
            prev = st;
            std::this_thread::yield();
        }
    });

    const auto inputs = seqs(kPerProducer, 10, 31);
    StatusTally tally;
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            serve::Session session =
                engine.session(static_cast<int>(p % 2));
            std::vector<std::future<serve::Response>> futures;
            // Open loop: fire everything without waiting, a mix of
            // no-deadline and tight-deadline requests.
            for (std::size_t i = 0; i < kPerProducer; ++i) {
                const double deadline = (i % 3 == 0) ? 0.5 : 0.0;
                futures.push_back(session.infer(inputs[i], deadline));
            }
            for (auto &f : futures) {
                const serve::Response r = f.get();  // must not hang
                tally.count(r.status);
                if (r.status == serve::Status::Ok) {
                    ASSERT_TRUE(r.executed);
                }
                if (r.status == serve::Status::RejectedCapacity) {
                    ASSERT_FALSE(r.executed);
                }
            }
        });
    }
    for (std::thread &t : producers)
        t.join();
    stop.store(true);
    sampler.join();

    // Exactly-once: the statuses partition the submissions.
    constexpr std::uint64_t kTotal = kProducers * kPerProducer;
    EXPECT_EQ(tally.total(), kTotal);

    const auto st = engine.stats();
    EXPECT_EQ(st.submitted, kTotal);
    EXPECT_EQ(st.completed, kTotal);
    EXPECT_EQ(st.ok, tally.ok.load());
    EXPECT_EQ(st.rejected, tally.rejected.load());
    EXPECT_EQ(st.failed, tally.failed.load());
    EXPECT_EQ(st.ok + st.deadlineMisses + st.rejected + st.failed,
              kTotal);
    EXPECT_EQ(st.shedBeforeRun + st.lateCompletions, st.deadlineMisses);
    EXPECT_LE(st.queueHighWater, kCapacity);
    EXPECT_GE(st.ok, 1u);

    // Publish the run's metrics for the CI artifact.
    const char *path = std::getenv("MFLSTM_STRESS_METRICS_JSON");
    std::ofstream os(path ? path : "serve_stress_metrics.json");
    engine.observer().metrics().writeJson(os);
    EXPECT_TRUE(os.good());
}

TEST_F(StressTest, DropOldestOverloadKeepsDrainingUnderFaults)
{
    serve::ProbabilisticFaultInjector inj(0.05, /*seed=*/3,
                                          /*max_faults=*/50);

    serve::InferenceEngine::Options opts;
    opts.maxBatch = 4;
    opts.workers = 2;
    opts.plan = runtime::PlanKind::Combined;
    opts.queueCapacity = 8;
    opts.admission = serve::AdmissionPolicy::DropOldest;
    opts.faultInjector = &inj;
    serve::InferenceEngine engine(mf, opts);
    serve::Session session = engine.session();

    const auto inputs = seqs(30, 10, 41);
    StatusTally tally;
    std::vector<std::future<serve::Response>> futures;
    for (std::size_t rep = 0; rep < 3; ++rep)
        for (const auto &s : inputs)
            futures.push_back(session.infer(s));
    for (auto &f : futures)
        tally.count(f.get().status);

    EXPECT_EQ(tally.total(), futures.size());
    const auto st = engine.stats();
    EXPECT_EQ(st.completed, futures.size());
    // DropOldest evictions surface as RejectedCapacity on the victim.
    EXPECT_EQ(st.evicted, tally.rejected.load());
    EXPECT_EQ(st.rejected, tally.rejected.load());
}

TEST_F(StressTest, BlockWithTimeoutOverloadNeverDeadlocks)
{
    serve::InferenceEngine::Options opts;
    opts.maxBatch = 4;
    opts.workers = 1;
    opts.plan = runtime::PlanKind::Combined;
    opts.queueCapacity = 4;
    opts.admission = serve::AdmissionPolicy::BlockWithTimeout;
    serve::InferenceEngine engine(mf, opts);

    const auto inputs = seqs(20, 10, 51);
    StatusTally tally;
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < 2; ++p) {
        producers.emplace_back([&] {
            serve::Session session = engine.session();
            std::vector<std::future<serve::Response>> futures;
            for (const auto &s : inputs)
                futures.push_back(session.infer(s));
            for (auto &f : futures)
                tally.count(f.get().status);
        });
    }
    for (std::thread &t : producers)
        t.join();

    EXPECT_EQ(tally.total(), 2 * inputs.size());
    EXPECT_EQ(engine.stats().completed, 2 * inputs.size());
    EXPECT_EQ(tally.failed.load(), 0u);
}

TEST_F(StressTest, GovernorEscalatesUnderLoadAndRelaxesAfter)
{
    const auto full = mf.calibration().ladder();

    serve::InferenceEngine::Options opts;
    opts.maxBatch = 4;
    opts.workers = 1;
    opts.plan = runtime::PlanKind::Combined;
    opts.governorLadder = {full[2], full[6], full[10]};
    opts.planningSequences = seqs(4, 8, 11);
    // Aggressive control so a short burst exercises both directions.
    opts.governor.highQueuePerWorker = 4.0;
    opts.governor.dwellTicks = 2;
    serve::InferenceEngine engine(mf, opts);
    serve::Session session = engine.session();

    // Phase 1 — overload: open-loop burst far past what one worker
    // retires, so queue depth per worker stays above the escalate
    // threshold for many consecutive governor ticks.
    const auto inputs = seqs(60, 12, 61);
    std::vector<std::future<serve::Response>> futures;
    for (const auto &s : inputs)
        futures.push_back(session.infer(s));
    for (auto &f : futures)
        ASSERT_NE(f.get().status, serve::Status::Failed);

    const auto mid = engine.stats();
    EXPECT_GE(mid.governorStepsUp, 1u) << "governor never escalated";

    // Phase 2 — calm: closed-loop trickle (one in flight at a time),
    // so every governor tick sees an empty queue and steps back down.
    for (std::size_t i = 0; i < 16; ++i)
        ASSERT_EQ(session.infer(inputs[i % inputs.size()]).get().status,
                  serve::Status::Ok);

    const auto st = engine.stats();
    EXPECT_GE(st.governorStepsDown, 1u) << "governor never relaxed";
    EXPECT_EQ(engine.activeRung(), 0u) << "did not return to AO";

    // Hysteresis: with dwellTicks = 2 between transitions, the total
    // transition count is bounded by half the control ticks (one tick
    // per batch) — a flapping governor would exceed it.
    const std::uint64_t transitions =
        st.governorStepsUp + st.governorStepsDown;
    EXPECT_LE(transitions, st.batches / 2 + 1);
}

} // namespace
