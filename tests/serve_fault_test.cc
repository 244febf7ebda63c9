/**
 * @file
 * Fault-injection tests for the serving engine (DESIGN.md §10). A
 * ScriptedFaultInjector fails chosen requests / batches for their
 * first N attempts, so every retry path is deterministic:
 *
 *   - a fault budgeted under maxRetries is retried and the successful
 *     retry's outputs are bit-identical to a fault-free run;
 *   - the retry bound is honoured exactly (attemptsSeen);
 *   - an exhausted budget resolves that request Status::Failed without
 *     stalling its batch siblings;
 *   - batch-timing faults retry the whole timing run, whether it is
 *     simulated or copied from the engine's timing table, and
 *     exhausting them fails the whole batch while later batches still
 *     serve.
 */

#include <gtest/gtest.h>

#include <future>
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

class FaultTest : public ::testing::Test
{
  protected:
    FaultTest()
        : model(clsConfig(), 77),
          mf(model, {gpu::GpuConfig::tegraX1(),
                     runtime::NetworkShape::stacked(512, 512, 2, 40)})
    {
        mf.calibrate(seqs(4, 8, 5));
        const auto ladder = mf.calibration().ladder();
        mf.setThresholds(ladder[ladder.size() / 2]);
        for (const auto &s : seqs(4, 8, 11))
            mf.runner().classify(s);
    }

    serve::InferenceEngine::Options
    faultOptions(serve::FaultInjector &inj, int max_retries) const
    {
        serve::InferenceEngine::Options o;
        o.maxBatch = 8;
        o.workers = 1;  // deterministic batch ordinals
        o.plan = runtime::PlanKind::Combined;
        o.faultInjector = &inj;
        o.maxRetries = max_retries;
        o.retryBackoffMs = 0.01;  // keep tests fast
        return o;
    }

    nn::LstmModel model;
    core::MemoryFriendlyLstm mf;
};

TEST_F(FaultTest, SuccessfulRetryIsBitIdenticalToFaultFreeRun)
{
    const auto inputs = seqs(6, 10, 23);
    core::ApproxRunner solo = mf.runner();
    std::vector<tensor::Vector> expected;
    for (const auto &s : inputs)
        expected.push_back(solo.classify(s));

    // Request ids are assigned 1.. in submit order; fail id 3's first
    // two attempts — under budget (maxRetries = 2), so it must recover.
    serve::ScriptedFaultInjector inj;
    inj.failRequest(3, 2);

    serve::InferenceEngine engine(mf, faultOptions(inj, 2));
    serve::Session session = engine.session();
    std::vector<std::future<serve::Response>> futures;
    for (const auto &s : inputs)
        futures.push_back(session.infer(s));

    for (std::size_t i = 0; i < futures.size(); ++i) {
        const serve::Response r = futures[i].get();
        ASSERT_EQ(r.status, serve::Status::Ok) << "request " << i;
        EXPECT_TRUE(r.executed);
        EXPECT_EQ(r.logits, expected[i]) << "request " << i;
        EXPECT_EQ(r.retries, r.id == 3 ? 2 : 0);
    }
    EXPECT_EQ(inj.injected(), 2u);
    EXPECT_EQ(inj.attemptsSeen(3), 3);  // 2 faulted + 1 success

    const auto st = engine.stats();
    EXPECT_EQ(st.retries, 2u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.ok, inputs.size());
}

TEST_F(FaultTest, ExhaustedRetriesFailWithoutStallingSiblings)
{
    const auto inputs = seqs(6, 10, 31);
    core::ApproxRunner solo = mf.runner();
    std::vector<tensor::Vector> expected;
    for (const auto &s : inputs)
        expected.push_back(solo.classify(s));

    // Fail id 2 for more attempts than the engine will ever make:
    // 1 initial + maxRetries(1) = 2 attempts, scripted to fail 5.
    serve::ScriptedFaultInjector inj;
    inj.failRequest(2, 5);

    serve::InferenceEngine engine(mf, faultOptions(inj, 1));
    serve::Session session = engine.session();
    std::vector<std::future<serve::Response>> futures;
    for (const auto &s : inputs)
        futures.push_back(session.infer(s));

    for (std::size_t i = 0; i < futures.size(); ++i) {
        const serve::Response r = futures[i].get();
        if (r.id == 2) {
            EXPECT_EQ(r.status, serve::Status::Failed);
            EXPECT_FALSE(r.executed);
            EXPECT_FALSE(r.error.empty());
        } else {
            // Siblings in the same batch are untouched.
            ASSERT_EQ(r.status, serve::Status::Ok) << "request " << i;
            EXPECT_EQ(r.logits, expected[i]) << "request " << i;
        }
    }
    // The retry bound was honoured exactly: attempts 0 and 1, no more.
    EXPECT_EQ(inj.attemptsSeen(2), 2);

    const auto st = engine.stats();
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.retries, 1u);
    EXPECT_EQ(st.completed, inputs.size());
}

TEST_F(FaultTest, BatchTimingFaultIsRetried)
{
    serve::ScriptedFaultInjector inj;
    inj.failBatch(0, 2);  // first batch: fail 2 timing attempts

    serve::InferenceEngine engine(mf, faultOptions(inj, 2));
    const serve::Response r =
        engine.session().infer(seqs(1, 10, 41).front()).get();
    EXPECT_EQ(r.status, serve::Status::Ok);
    EXPECT_GT(r.simBatchMs, 0.0);  // the retried timing run completed
    EXPECT_EQ(inj.injected(), 2u);
    EXPECT_EQ(engine.stats().retries, 2u);
}

TEST_F(FaultTest, BatchTimingFaultOnATimingTableHitIsRetried)
{
    serve::ScriptedFaultInjector inj;
    serve::InferenceEngine engine(mf, faultOptions(inj, 2));
    serve::Session session = engine.session();
    const auto inputs = seqs(2, 10, 43);

    // Batch 0 simulates the batch-1 timing run and stores it.
    const serve::Response first = session.infer(inputs[0]).get();
    ASSERT_EQ(first.status, serve::Status::Ok);
    EXPECT_EQ(inj.injected(), 0u);

    // Batch 1 has the same size, so its timing run is a table hit; the
    // injector is still consulted before the lookup on every attempt.
    inj.failBatch(1, 2);
    const serve::Response second = session.infer(inputs[1]).get();
    EXPECT_EQ(second.status, serve::Status::Ok);
    EXPECT_EQ(second.batch, first.batch);
    EXPECT_EQ(second.simBatchMs, first.simBatchMs);
    EXPECT_EQ(inj.injected(), 2u);
    EXPECT_EQ(engine.stats().retries, 2u);
    const obs::Counter *sims =
        engine.observer().metrics().findCounter("serve.timing_sims");
    ASSERT_NE(sims, nullptr);
    EXPECT_EQ(sims->value(), 1.0);
}

TEST_F(FaultTest, ExhaustedBatchRetriesFailTheBatchButNotTheEngine)
{
    serve::ScriptedFaultInjector inj;
    inj.failBatch(0, 10);  // beyond any budget: batch 0 always fails

    serve::InferenceEngine engine(mf, faultOptions(inj, 1));
    serve::Session session = engine.session();

    const auto inputs = seqs(2, 10, 51);
    const serve::Response first = session.infer(inputs[0]).get();
    EXPECT_EQ(first.status, serve::Status::Failed);
    EXPECT_FALSE(first.executed);
    EXPECT_FALSE(first.error.empty());

    // The worker survived; the next batch (ordinal 1) serves normally.
    const serve::Response second = session.infer(inputs[1]).get();
    EXPECT_EQ(second.status, serve::Status::Ok);
    EXPECT_TRUE(second.executed);

    const auto st = engine.stats();
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.ok, 1u);
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.workerRestarts, 0u);  // handled, not restarted
}

TEST_F(FaultTest, ProbabilisticInjectorRespectsCapAndEngineDrains)
{
    // Rate 1.0 capped at 3 injections: the first requests burn the
    // budget through retries, then everything completes cleanly.
    serve::ProbabilisticFaultInjector inj(1.0, /*seed=*/7,
                                          /*max_faults=*/3);

    serve::InferenceEngine engine(mf, faultOptions(inj, 3));
    serve::Session session = engine.session();
    const auto inputs = seqs(8, 10, 61);
    std::vector<std::future<serve::Response>> futures;
    for (const auto &s : inputs)
        futures.push_back(session.infer(s));

    std::size_t ok = 0;
    std::size_t failed = 0;
    for (auto &f : futures) {
        const serve::Response r = f.get();  // nothing hangs
        (r.status == serve::Status::Ok ? ok : failed) += 1;
    }
    EXPECT_EQ(ok + failed, inputs.size());
    EXPECT_EQ(inj.injected(), 3u);
    // With budget 3 retries per site, a 3-fault cap cannot exhaust
    // any single request's budget plus its batch's budget at once.
    EXPECT_GE(ok, 1u);
}

} // namespace
