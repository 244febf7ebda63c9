/**
 * @file
 * Concurrency tests for the observability sinks (DESIGN.md §9): several
 * threads hammer the same counters, gauges, histograms and the span
 * tracer, and the totals must come out exact. Run under
 * -DMFLSTM_SANITIZE=thread in CI to catch data races, not just lost
 * updates.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/observer.hh"

namespace {

using namespace mflstm;

constexpr std::size_t kThreads = 8;
constexpr std::size_t kOpsPerThread = 10000;

void
hammer(std::size_t threads, const std::function<void(std::size_t)> &fn)
{
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back([&fn, t] { fn(t); });
    for (std::thread &t : pool)
        t.join();
}

TEST(ObsConcurrency, CounterAddsAreNotLost)
{
    obs::Counter c;
    hammer(kThreads, [&](std::size_t) {
        for (std::size_t i = 0; i < kOpsPerThread; ++i)
            c.add();
    });
    // Integer-valued doubles are exact far beyond this range.
    EXPECT_DOUBLE_EQ(c.value(),
                     static_cast<double>(kThreads * kOpsPerThread));
}

TEST(ObsConcurrency, CounterFractionalDeltas)
{
    obs::Counter c;
    hammer(kThreads, [&](std::size_t) {
        for (std::size_t i = 0; i < kOpsPerThread; ++i)
            c.add(0.5);  // exact in binary floating point
    });
    EXPECT_DOUBLE_EQ(c.value(),
                     0.5 * static_cast<double>(kThreads * kOpsPerThread));
}

TEST(ObsConcurrency, GaugeLastWriteWins)
{
    obs::Gauge g;
    hammer(kThreads, [&](std::size_t t) {
        for (std::size_t i = 0; i < kOpsPerThread; ++i)
            g.set(static_cast<double>(t));
    });
    const double v = g.value();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, static_cast<double>(kThreads));
}

TEST(ObsConcurrency, HistogramObservationsAreNotLost)
{
    obs::Histogram h({1.0, 2.0, 4.0, 8.0});
    hammer(kThreads, [&](std::size_t t) {
        for (std::size_t i = 0; i < kOpsPerThread; ++i)
            h.observe(static_cast<double>(t % 10));
    });
    const obs::Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, kThreads * kOpsPerThread);
    std::uint64_t bucketed = 0;
    for (std::uint64_t b : s.buckets)
        bucketed += b;
    EXPECT_EQ(bucketed, s.count);
    EXPECT_DOUBLE_EQ(s.min, 0.0);
    EXPECT_DOUBLE_EQ(s.max, 7.0);  // t in 0..7
}

TEST(ObsConcurrency, RegistryCreationRace)
{
    obs::MetricsRegistry reg;
    // Every thread races to create/lookup the same instruments and then
    // records through the returned references.
    hammer(kThreads, [&](std::size_t) {
        for (std::size_t i = 0; i < 1000; ++i) {
            reg.counter("shared.counter").add();
            reg.gauge("shared.gauge").set(static_cast<double>(i));
            reg.histogram("shared.hist", {1.0, 10.0, 100.0})
                .observe(static_cast<double>(i));
        }
    });
    EXPECT_DOUBLE_EQ(reg.counter("shared.counter").value(),
                     static_cast<double>(kThreads * 1000));
    EXPECT_EQ(reg.histogram("shared.hist", {}).snapshot().count,
              kThreads * 1000);
}

TEST(ObsConcurrency, DumpWhileRecording)
{
    obs::MetricsRegistry reg;
    std::atomic<bool> stop{false};
    std::thread dumper([&] {
        while (!stop.load()) {
            std::ostringstream os;
            reg.writeJson(os);
        }
    });
    hammer(kThreads, [&](std::size_t t) {
        for (std::size_t i = 0; i < 2000; ++i) {
            reg.counter("dump.counter").add();
            reg.histogram("dump.hist." + std::to_string(t % 3),
                          {1.0, 2.0})
                .observe(1.5);
        }
    });
    stop.store(true);
    dumper.join();
    EXPECT_DOUBLE_EQ(reg.counter("dump.counter").value(),
                     static_cast<double>(kThreads * 2000));
}

TEST(ObsConcurrency, QuantileUnderConcurrentObserves)
{
    obs::Histogram h(obs::Histogram::exponentialEdges(0.1, 1000.0, 20));
    hammer(4, [&](std::size_t) {
        for (std::size_t i = 0; i < 5000; ++i) {
            h.observe(5.0);
            (void)h.quantile(0.5);  // must not crash or tear
        }
    });
    EXPECT_EQ(h.snapshot().count, 4u * 5000u);
    // All mass sits in one bucket; the median interpolates within it.
    const double p50 = h.quantile(0.5);
    EXPECT_GT(p50, 0.1);
    EXPECT_LT(p50, 10.0);
}

TEST(ObsConcurrency, TracerRecordsFromManyThreads)
{
    obs::SpanTracer tr;
    hammer(kThreads, [&](std::size_t t) {
        for (std::size_t i = 0; i < 1000; ++i) {
            obs::TraceSpan s;
            s.name = "span";
            s.pid = obs::SpanTracer::kHostPid;
            s.tid = static_cast<int>(t);
            s.startUs = static_cast<double>(i);
            s.durUs = 1.0;
            tr.record(std::move(s));
            tr.advanceSimCursor(0.5);
        }
        tr.setTrackName(obs::SpanTracer::kHostPid,
                        static_cast<int>(t),
                        "thread " + std::to_string(t));
    });
    EXPECT_EQ(tr.spans().size(), kThreads * 1000);
    EXPECT_EQ(tr.droppedSpans(), 0u);
    EXPECT_DOUBLE_EQ(tr.simCursorUs(),
                     0.5 * static_cast<double>(kThreads * 1000));

    std::ostringstream os;
    tr.writeChromeTrace(os);
    EXPECT_NE(os.str().find("traceEvents"), std::string::npos);
}

TEST(ObsConcurrency, ObserverPhasesFromManyThreads)
{
    obs::Observer obs;
    hammer(kThreads, [&](std::size_t t) {
        for (std::size_t i = 0; i < 200; ++i) {
            auto ph = obs::Observer::phase(
                &obs, "phase " + std::to_string(t));
            obs.metrics().counter("phases").add();
        }
    });
    EXPECT_DOUBLE_EQ(obs.metrics().counter("phases").value(),
                     static_cast<double>(kThreads * 200));
    EXPECT_EQ(obs.tracer().spans().size(), kThreads * 200);
}

} // namespace
