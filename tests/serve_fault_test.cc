/**
 * @file
 * Fault-injection tests for the serving engine (DESIGN.md §10). The
 * test support library's ScriptedFaultInjector fails chosen requests / batches for their
 * first N attempts, so every retry path is deterministic:
 *
 *   - a fault budgeted under kMaxRetries is retried and the successful
 *     retry's outputs are bit-identical to a fault-free run;
 *   - the retry bound is honoured exactly (attemptsSeen), and every
 *     retry first backs off for its doubling share of the wait;
 *   - an exhausted budget resolves that request Status::Failed without
 *     stalling its batch siblings;
 *   - batch-timing faults retry the whole timing run, whether it is
 *     simulated or copied from the engine's timing table, and
 *     exhausting them fails the whole batch while later batches still
 *     serve;
 *   - an error no retry site catches restarts the worker loop, which
 *     fails only the batch it was serving.
 */

#include <gtest/gtest.h>

#include <future>
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
    faultOptions(serve::FaultInjector &inj) const
    {
        serve::InferenceEngine::Options o;
        o.maxBatch = 8;
        o.workers = 1;  // deterministic batch ordinals
        o.plan = runtime::PlanKind::Combined;
        o.faultInjector = &inj;
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
    // kMaxRetries attempts — within budget, so it must recover.
    test::ScriptedFaultInjector inj;
    inj.failRequest(3, serve::kMaxRetries);

    serve::InferenceEngine engine(mf, faultOptions(inj));
    serve::Session session = engine.session();
    std::vector<std::future<serve::Response>> futures;
    for (const auto &s : inputs)
        futures.push_back(session.infer(s));

    for (std::size_t i = 0; i < futures.size(); ++i) {
        const serve::Response r = futures[i].get();
        ASSERT_EQ(r.status, serve::Status::Ok) << "request " << i;
        EXPECT_TRUE(r.executed);
        EXPECT_EQ(r.logits, expected[i]) << "request " << i;
        EXPECT_EQ(r.retries, r.id == 3 ? serve::kMaxRetries : 0);
    }
    EXPECT_EQ(inj.injected(), std::uint64_t{serve::kMaxRetries});
    // kMaxRetries faulted + 1 success
    EXPECT_EQ(inj.attemptsSeen(3), serve::kMaxRetries + 1);

    const auto st = engine.stats();
    EXPECT_EQ(st.retries, std::uint64_t{serve::kMaxRetries});
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
    // 1 initial + kMaxRetries attempts, scripted to fail 5.
    test::ScriptedFaultInjector inj;
    inj.failRequest(2, 5);

    serve::InferenceEngine engine(mf, faultOptions(inj));
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
    // The retry bound was honoured exactly: attempts 0..kMaxRetries.
    EXPECT_EQ(inj.attemptsSeen(2), serve::kMaxRetries + 1);

    const auto st = engine.stats();
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.retries, std::uint64_t{serve::kMaxRetries});
    EXPECT_EQ(st.completed, inputs.size());
}

TEST_F(FaultTest, BatchTimingFaultIsRetried)
{
    test::ScriptedFaultInjector inj;
    // First batch: fail every timing attempt the budget retries.
    inj.failBatch(0, serve::kMaxRetries);

    serve::InferenceEngine engine(mf, faultOptions(inj));
    const serve::Response r =
        engine.session().infer(seqs(1, 10, 41).front()).get();
    EXPECT_EQ(r.status, serve::Status::Ok);
    EXPECT_GT(r.simBatchMs, 0.0);  // the retried timing run completed
    EXPECT_EQ(inj.injected(), std::uint64_t{serve::kMaxRetries});
    EXPECT_EQ(engine.stats().retries, std::uint64_t{serve::kMaxRetries});
}

TEST_F(FaultTest, BatchTimingFaultOnATimingTableHitIsRetried)
{
    test::ScriptedFaultInjector inj;
    serve::InferenceEngine engine(mf, faultOptions(inj));
    serve::Session session = engine.session();
    const auto inputs = seqs(2, 10, 43);

    // Batch 0 simulates the batch-1 timing run and stores it.
    const serve::Response first = session.infer(inputs[0]).get();
    ASSERT_EQ(first.status, serve::Status::Ok);
    EXPECT_EQ(inj.injected(), 0u);

    // Batch 1 has the same size, so its timing run is a table hit; the
    // injector is still consulted before the lookup on every attempt.
    inj.failBatch(1, serve::kMaxRetries);
    const serve::Response second = session.infer(inputs[1]).get();
    EXPECT_EQ(second.status, serve::Status::Ok);
    EXPECT_EQ(second.batch, first.batch);
    EXPECT_EQ(second.simBatchMs, first.simBatchMs);
    EXPECT_EQ(inj.injected(), std::uint64_t{serve::kMaxRetries});
    EXPECT_EQ(engine.stats().retries, std::uint64_t{serve::kMaxRetries});
    EXPECT_EQ(test::dumpedCounter(engine.observer().metrics(),
                                  "serve.timing_sims"),
              1.0);
}

TEST_F(FaultTest, ExhaustedBatchRetriesFailTheBatchButNotTheEngine)
{
    test::ScriptedFaultInjector inj;
    inj.failBatch(0, 10);  // beyond the budget: batch 0 always fails

    serve::InferenceEngine engine(mf, faultOptions(inj));
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

/**
 * Throws a non-std exception at batch 0's timing site: withRetries
 * catches only std::exception, so this is the error that reaches the
 * worker loop's restart handler.
 */
class NonStandardThrowInjector : public serve::FaultInjector
{
  public:
    bool shouldFail(const serve::FaultSite &site) override
    {
        if (site.kind == serve::FaultSite::Kind::BatchRun &&
            site.batchOrdinal == 0)
            throw 42;
        return false;
    }
};

TEST_F(FaultTest, UnexpectedErrorRestartsTheWorkerAndFailsOnlyItsBatch)
{
    NonStandardThrowInjector inj;
    serve::InferenceEngine engine(mf, faultOptions(inj));
    serve::Session session = engine.session();

    const auto inputs = seqs(2, 10, 57);
    const serve::Response first = session.infer(inputs[0]).get();
    EXPECT_EQ(first.status, serve::Status::Failed);
    EXPECT_FALSE(first.executed);
    EXPECT_EQ(first.error, "batch aborted by an unexpected error");

    // The worker loop survived and serves the next batch.
    const serve::Response second = session.infer(inputs[1]).get();
    EXPECT_EQ(second.status, serve::Status::Ok);

    const auto st = engine.stats();
    EXPECT_EQ(st.workerRestarts, 1u);
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.ok, 1u);
}

TEST_F(FaultTest, ProbabilisticInjectorRespectsCapAndEngineDrains)
{
    // Rate 1.0 capped at kMaxRetries injections: the first batch's
    // timing site absorbs them all through retries, then everything
    // runs clean.
    serve::ProbabilisticFaultInjector inj(
        1.0, /*seed=*/7, /*max_faults=*/serve::kMaxRetries);

    serve::InferenceEngine engine(mf, faultOptions(inj));
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
    EXPECT_EQ(inj.injected(), std::uint64_t{serve::kMaxRetries});
    // A cap of kMaxRetries faults cannot exhaust any site's budget.
    EXPECT_EQ(ok, inputs.size());
}

TEST_F(FaultTest, RetriesBackOffExponentially)
{
    // Retry k waits kRetryBackoffMs * 2^k first, so a site that
    // faults on every retry the budget allows waits at least the sum
    // of those waits: at the request site inside execMs, at the
    // timing site (a table hit, so no simulation hides in the wait)
    // inside batchWaitMs.
    test::ScriptedFaultInjector inj;
    serve::InferenceEngine engine(mf, faultOptions(inj));
    serve::Session session = engine.session();
    const auto inputs = seqs(2, 10, 47);
    ASSERT_EQ(session.infer(inputs[0]).get().status, serve::Status::Ok);

    double backoff_ms = 0.0;
    for (int k = 0; k < serve::kMaxRetries; ++k)
        backoff_ms += serve::kRetryBackoffMs * (1 << k);
    inj.failBatch(1, serve::kMaxRetries);
    inj.failRequest(2, serve::kMaxRetries);
    const serve::Response r = session.infer(inputs[1]).get();
    ASSERT_EQ(r.status, serve::Status::Ok);
    EXPECT_EQ(r.retries, serve::kMaxRetries);
    EXPECT_GE(r.batchWaitMs, backoff_ms);
    EXPECT_GE(r.execMs, backoff_ms);
}

} // namespace
