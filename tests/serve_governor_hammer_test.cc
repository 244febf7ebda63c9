/**
 * @file
 * Hammer tests for the adaptive threshold governor (DESIGN.md §10,
 * §16). The ladder invariant: every transition moves exactly one rung
 * — stepsUp - stepsDown always equals the current rung, and the rung
 * never leaves [0, rungCount). Verified directly under concurrent
 * observe/setRungFloor/rung pressure (the tsan chaos slice), and
 * end-to-end through an engine serving a concurrent submit/shed flood
 * where every executed response must be bit-identical to a solo
 * runner pinned at the rung the response reports.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/engine.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;

TEST(GovernorHammer, ConcurrentObserveKeepsTheLadderInvariant)
{
    constexpr std::size_t kRungs = 5;
    serve::AdaptiveThresholdGovernor::Config cfg;
    cfg.highQueuePerWorker = 8.0;
    cfg.dwellTicks = 2;
    serve::AdaptiveThresholdGovernor gov(kRungs, cfg);

    std::atomic<bool> stop{false};
    std::atomic<bool> violated{false};

    // Readers race the writers on the hot-path atomic.
    std::vector<std::thread> threads;
    for (int r = 0; r < 2; ++r)
        threads.emplace_back([&] {
            while (!stop.load()) {
                if (gov.rung() >= kRungs)
                    violated.store(true);
            }
        });

    // Writers alternate pressure and calm so the governor walks both
    // directions; a deterministic per-thread pattern, no wall clock.
    for (int w = 0; w < 4; ++w)
        threads.emplace_back([&, w] {
            for (int i = 0; i < 4000; ++i) {
                const std::size_t depth =
                    ((i >> 5) + w) % 2 == 0 ? 100 : 0;
                gov.observe(depth, 2);
            }
        });

    // A floor writer mimics the fleet redistributing over survivors.
    threads.emplace_back([&] {
        for (int i = 0; i < 1000; ++i)
            gov.setRungFloor(static_cast<std::size_t>(i) % kRungs);
    });

    for (std::size_t i = 2; i < threads.size(); ++i)
        threads[i].join();
    stop.store(true);
    threads[0].join();
    threads[1].join();
    EXPECT_FALSE(violated.load());

    // The ladder never skipped: each recorded transition is exactly
    // one rung, so the net steps equal the rung everywhere it landed.
    const serve::AdaptiveThresholdGovernor::Stats st = gov.stats();
    EXPECT_EQ(st.stepsUp - st.stepsDown,
              static_cast<std::uint64_t>(gov.rung()));
    EXPECT_LT(gov.rung(), kRungs);

    // Raising the floor converges one rung per call, never a jump.
    gov.setRungFloor(kRungs - 1);
    std::size_t prev = gov.rung();
    while (gov.rung() < kRungs - 1) {
        gov.observe(0, 2);
        EXPECT_LE(gov.rung(), prev + 1);
        ASSERT_GE(gov.rung(), prev);  // bounded loop: monotone climb
        prev = gov.rung();
    }
    EXPECT_EQ(gov.rungFloor(), kRungs - 1);
    const serve::AdaptiveThresholdGovernor::Stats end = gov.stats();
    EXPECT_EQ(end.stepsUp - end.stepsDown,
              static_cast<std::uint64_t>(gov.rung()));
}

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

TEST(GovernorHammer, SnapshotRungsStayConsistentUnderSubmitAndShed)
{
    nn::LstmModel model(clsConfig(), 77);
    core::MemoryFriendlyLstm mf(
        model, {gpu::GpuConfig::tegraX1(),
                runtime::NetworkShape::stacked(512, 512, 2, 40)});
    mf.calibrate(seqs(4, 8, 5));
    const auto ladder = mf.calibration().ladder();
    ASSERT_GE(ladder.size(), 2u);

    // Solo reference per (rung, input): whatever rung the governor
    // lands a batch on, the executed outputs must be bit-identical to
    // a runner pinned at that rung's thresholds.
    const auto inputs = seqs(6, 10, 61);
    std::vector<std::vector<tensor::Vector>> expected(ladder.size());
    for (std::size_t r = 0; r < ladder.size(); ++r) {
        mf.setThresholds(ladder[r]);
        core::ApproxRunner solo = mf.runner();
        for (const auto &s : inputs)
            expected[r].push_back(solo.classify(s));
    }
    mf.setThresholds(ladder[ladder.size() / 2]);
    for (const auto &s : seqs(4, 8, 11))
        mf.runner().classify(s);

    serve::InferenceEngine::Options opts;
    opts.maxBatch = 4;
    opts.workers = 2;
    opts.governorLadder = ladder;
    opts.planningSequences = seqs(2, 8, 5);
    // A twitchy governor: tiny hysteresis band and no dwell to force
    // many transitions while the flood runs.
    opts.governor.highQueuePerWorker = 3.0;
    opts.governor.dwellTicks = 1;
    serve::InferenceEngine engine(mf, opts);

    struct Tagged
    {
        std::size_t input = 0;
        std::future<serve::Response> fut;
    };
    std::mutex mu;
    std::vector<Tagged> futures;
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
        producers.emplace_back([&, p] {
            // Bounded flood: enough to swing the governor both ways
            // without building an undrainable backlog in CI.
            for (int i = 0; i < 300; ++i) {
                const std::size_t which =
                    static_cast<std::size_t>(p + i) % inputs.size();
                serve::Request req;
                req.tokens = inputs[which];
                // A third of the flood carries a tight deadline, so
                // shedding races the governor transitions.
                if (i % 3 == 0)
                    req.deadlineMs = 0.05;
                try {
                    Tagged t;
                    t.input = which;
                    t.fut = engine.submit(std::move(req));
                    std::lock_guard<std::mutex> lock(mu);
                    futures.push_back(std::move(t));
                } catch (const std::runtime_error &) {
                    break;
                }
            }
        });
    }
    for (std::thread &t : producers)
        t.join();
    engine.shutdown();

    std::size_t executed = 0;
    std::size_t shed = 0;
    for (Tagged &t : futures) {
        ASSERT_TRUE(t.fut.valid());
        const serve::Response r = t.fut.get();
        ASSERT_LT(r.rung, ladder.size());
        if (r.status == serve::Status::ShedDeadline && !r.executed) {
            ++shed;
            continue;
        }
        if (!r.executed)
            continue;
        ++executed;
        EXPECT_EQ(r.logits, expected[r.rung][t.input])
            << "rung " << r.rung << " input " << t.input;
    }
    EXPECT_GE(executed, 1u);

    // Net transitions equal the final rung: the ladder walked one
    // rung at a time through the whole flood.
    const serve::InferenceEngine::Stats st = engine.stats();
    EXPECT_EQ(st.governorStepsUp - st.governorStepsDown,
              static_cast<std::uint64_t>(engine.activeRung()));
    EXPECT_EQ(st.completed, futures.size());
    EXPECT_EQ(st.shedBeforeRun + st.lateCompletions,
              st.deadlineMisses);
}

} // namespace
