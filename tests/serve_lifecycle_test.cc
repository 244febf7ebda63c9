/**
 * @file
 * Per-request lifecycle observability tests for the serving layer: the
 * Response must carry the queue / batch-wait / exec split, the split
 * must be consistent with the end-to-end latency, the engine's observer
 * must expose the matching "serve.*_ms" histograms, and every completed
 * request must leave queue/batch-wait/exec/complete spans on the serve
 * process track of a caller-owned observer's Chrome trace (and none in
 * an engine-owned one).
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

class LifecycleTest : public ::testing::Test
{
  protected:
    LifecycleTest()
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

    serve::InferenceEngine::Options engineOptions() const
    {
        serve::InferenceEngine::Options o;
        o.maxBatch = 8;
        o.workers = 2;
        o.plan = runtime::PlanKind::Combined;
        return o;
    }

    std::vector<serve::Response> runRequests(serve::InferenceEngine &eng,
                                             std::size_t n)
    {
        serve::Session session = eng.session();
        std::vector<std::future<serve::Response>> futures;
        for (const auto &s : seqs(n, 12, 23))
            futures.push_back(session.infer(s));
        std::vector<serve::Response> out;
        for (auto &f : futures)
            out.push_back(f.get());
        return out;
    }

    nn::LstmModel model;
    core::MemoryFriendlyLstm mf;
};

TEST_F(LifecycleTest, ResponseCarriesLifecycleSplit)
{
    serve::InferenceEngine engine(mf, engineOptions());
    const auto responses = runRequests(engine, 12);

    for (const serve::Response &r : responses) {
        ASSERT_EQ(r.status, serve::Status::Ok);
        EXPECT_GE(r.queueMs, 0.0);
        EXPECT_GE(r.batchWaitMs, 0.0);
        // An executed request spent real time in the worker.
        EXPECT_GT(r.execMs, 0.0);
        // The stages are a decomposition of the end-to-end latency;
        // clock-read granularity is the only slack allowed.
        EXPECT_LE(r.queueMs + r.batchWaitMs + r.execMs,
                  r.latencyMs + 0.5);
        EXPECT_GE(r.latencyMs, r.execMs);
    }
}

TEST_F(LifecycleTest, ObserverExposesStageHistograms)
{
    serve::InferenceEngine engine(mf, engineOptions());
    const std::size_t n = runRequests(engine, 10).size();

    const obs::MetricsRegistry &m = engine.observer().metrics();
    for (const char *name :
         {"serve.latency_ms", "serve.queue_ms", "serve.batch_wait_ms",
          "serve.exec_ms"}) {
        const obs::Histogram *h = m.findHistogram(name);
        ASSERT_NE(h, nullptr) << name;
        EXPECT_GE(h->count(), n) << name;
        EXPECT_GE(h->quantile(0.95), h->quantile(0.50)) << name;
    }
}

TEST_F(LifecycleTest, TracerRecordsSpansOnServeTrack)
{
    // Lifecycle spans go to a caller-owned observer, the one a trace
    // export reads.
    obs::Observer obs;
    serve::InferenceEngine::Options o = engineOptions();
    o.observer = &obs;
    serve::InferenceEngine engine(mf, o);
    const auto responses = runRequests(engine, 8);
    // spans() is for quiescent readers: a worker may still be closing
    // its batch span after the last future resolved.
    engine.shutdown();

    std::size_t queue = 0, exec = 0, complete = 0;
    for (const obs::TraceSpan &s :
         engine.observer().tracer().spans()) {
        if (s.pid != obs::SpanTracer::kServePid ||
            s.category != "request")
            continue;
        if (s.name == "queue")
            ++queue;
        else if (s.name == "exec")
            ++exec;
        else if (s.name == "complete")
            ++complete;
        // Every lifecycle span names its request and terminal status.
        bool has_id = false;
        for (const auto &kv : s.numArgs)
            has_id |= kv.first == "id";
        EXPECT_TRUE(has_id) << s.name;
    }
    // One completion marker per request; exec spans only for requests
    // that actually ran (here: all of them).
    EXPECT_EQ(complete, responses.size());
    EXPECT_EQ(exec, responses.size());
    EXPECT_GT(queue, 0u);
}

TEST_F(LifecycleTest, PrivateObserverHoldsNoServeSpans)
{
    // An engine that owns its observer keeps no per-request spans, so
    // its memory does not grow with the requests it serves; the stage
    // histograms still count every request.
    serve::InferenceEngine engine(mf, engineOptions());
    const std::size_t n = runRequests(engine, 40).size();
    engine.shutdown();

    std::size_t serve_spans = 0;
    for (const obs::TraceSpan &s : engine.observer().tracer().spans())
        serve_spans += s.pid == obs::SpanTracer::kServePid;
    EXPECT_EQ(serve_spans, 0u);
    const obs::Histogram *h =
        engine.observer().metrics().findHistogram("serve.exec_ms");
    ASSERT_NE(h, nullptr);
    EXPECT_GE(h->count(), n);
}

TEST_F(LifecycleTest, SharedObserverReceivesLifecycle)
{
    // The engine can observe into a caller-owned Observer; lifecycle
    // histograms land there, not in a private one.
    obs::Observer obs;
    serve::InferenceEngine::Options o = engineOptions();
    o.observer = &obs;
    serve::InferenceEngine engine(mf, o);
    runRequests(engine, 6);

    const obs::Histogram *h =
        obs.metrics().findHistogram("serve.exec_ms");
    ASSERT_NE(h, nullptr);
    EXPECT_GE(h->count(), 6u);
    EXPECT_EQ(&engine.observer(), &obs);
}

} // namespace
