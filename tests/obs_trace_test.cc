/**
 * @file
 * Tests for the span tracer and host-phase spans: Chrome trace-event
 * output is parsed back and checked for per-track monotonic timestamps,
 * track metadata, and correct phase nesting.
 */

#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hh"
#include "obs/observer.hh"
#include "obs/trace.hh"

namespace {

using namespace mflstm::obs;

TraceSpan
gpuSpan(const std::string &name, int tid, double start, double dur)
{
    TraceSpan s;
    s.name = name;
    s.category = "kernel";
    s.pid = SpanTracer::kGpuPid;
    s.tid = tid;
    s.startUs = start;
    s.durUs = dur;
    return s;
}

TEST(Trace, RecordsSpansInOrder)
{
    SpanTracer t;
    EXPECT_TRUE(t.spans().empty());
    t.record(gpuSpan("a", 0, 0.0, 1.0));
    t.record(gpuSpan("b", 0, 1.0, 2.0));
    ASSERT_EQ(t.spans().size(), 2u);
    EXPECT_EQ(t.spans()[0].name, "a");
    EXPECT_EQ(t.spans()[1].name, "b");
    EXPECT_EQ(t.droppedSpans(), 0u);
}

TEST(Trace, SimCursorAdvances)
{
    SpanTracer t;
    EXPECT_DOUBLE_EQ(t.simCursorUs(), 0.0);
    t.advanceSimCursor(12.5);
    t.advanceSimCursor(7.5);
    EXPECT_DOUBLE_EQ(t.simCursorUs(), 20.0);
}

TEST(Trace, ChromeTraceParsesWithTrackMetadata)
{
    SpanTracer t;
    t.setTrackName(SpanTracer::kGpuPid, 0, "SM 0");
    t.setTrackName(SpanTracer::kGpuPid, 1, "SM 1");
    t.record(gpuSpan("k0", 0, 0.0, 3.0));
    t.record(gpuSpan("k1", 1, 3.0, 2.0));

    std::ostringstream os;
    t.writeChromeTrace(os);
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value());

    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);

    std::size_t meta = 0;
    std::size_t complete = 0;
    bool saw_gpu_process = false;
    bool saw_sm1 = false;
    for (const JsonValue &ev : events->items) {
        const JsonValue *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->str == "M") {
            ++meta;
            const JsonValue *args = ev.find("args");
            ASSERT_NE(args, nullptr);
            const JsonValue *name = args->find("name");
            ASSERT_NE(name, nullptr);
            if (name->str == "GPU (simulated time)")
                saw_gpu_process = true;
            if (name->str == "SM 1")
                saw_sm1 = true;
        } else if (ph->str == "X") {
            ++complete;
            EXPECT_NE(ev.find("ts"), nullptr);
            EXPECT_NE(ev.find("dur"), nullptr);
        }
    }
    // 2 process_name + 2 thread_name metadata events, 2 spans.
    EXPECT_EQ(meta, 4u);
    EXPECT_EQ(complete, 2u);
    EXPECT_TRUE(saw_gpu_process);
    EXPECT_TRUE(saw_sm1);
}

TEST(Trace, TimestampsStrictlyIncreasePerTrack)
{
    SpanTracer t;
    // Interleaved tracks; each track's own ts sequence must ascend.
    t.record(gpuSpan("a0", 0, 0.0, 1.0));
    t.record(gpuSpan("b0", 1, 0.0, 4.0));
    t.record(gpuSpan("a1", 0, 1.0, 1.0));
    t.record(gpuSpan("a2", 0, 2.5, 1.0));
    t.record(gpuSpan("b1", 1, 4.0, 1.0));

    std::ostringstream os;
    t.writeChromeTrace(os);
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value());
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);

    std::map<std::pair<double, double>, std::vector<double>> perTrack;
    for (const JsonValue &ev : events->items) {
        if (ev.find("ph")->str != "X")
            continue;
        perTrack[{ev.find("pid")->number, ev.find("tid")->number}]
            .push_back(ev.find("ts")->number);
    }
    ASSERT_EQ(perTrack.size(), 2u);
    for (const auto &[track, ts] : perTrack) {
        for (std::size_t i = 1; i < ts.size(); ++i)
            EXPECT_LT(ts[i - 1], ts[i])
                << "track tid=" << track.second << " event " << i;
    }
}

TEST(Trace, ArgsSurviveTheJsonRoundTrip)
{
    SpanTracer t;
    TraceSpan s = gpuSpan("Sgemm", 0, 0.0, 5.0);
    s.numArgs = {{"flops", 1e6}, {"layer", 2.0}};
    s.strArgs = {{"class", "Sgemm"}};
    t.record(std::move(s));

    std::ostringstream os;
    t.writeChromeTrace(os);
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value());
    const JsonValue &ev = doc->find("traceEvents")->items.back();
    const JsonValue *args = ev.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_DOUBLE_EQ(args->find("flops")->number, 1e6);
    EXPECT_DOUBLE_EQ(args->find("layer")->number, 2.0);
    EXPECT_EQ(args->find("class")->str, "Sgemm");
}

TEST(Trace, PhaseSpansNestInnerInsideOuter)
{
    Observer obs;
    {
        auto outer = Observer::phase(&obs, "outer");
        {
            auto inner = Observer::phase(&obs, "inner");
        }
        {
            auto inner2 = Observer::phase(&obs, "inner2");
        }
    }

    const auto &spans = obs.tracer().spans();
    // Spans record on close: inner, inner2, outer.
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[1].name, "inner2");
    EXPECT_EQ(spans[2].name, "outer");

    const TraceSpan &outer = spans[2];
    for (std::size_t i = 0; i < 2; ++i) {
        const TraceSpan &inner = spans[i];
        EXPECT_EQ(inner.pid, SpanTracer::kHostPid);
        EXPECT_GE(inner.startUs, outer.startUs);
        EXPECT_LE(inner.startUs + inner.durUs,
                  outer.startUs + outer.durUs);
    }
    // inner2 starts after inner ends (sequential scopes).
    EXPECT_GE(spans[1].startUs, spans[0].startUs + spans[0].durUs);
}

TEST(Trace, NullObserverPhaseIsInert)
{
    // Must not crash and must record nothing anywhere.
    auto ph = Observer::phase(nullptr, "nothing");
    ph.close();
    ph.close();  // idempotent

    Observer obs;
    {
        auto real = Observer::phase(&obs, "real");
        auto moved = std::move(real);
        // The moved-from phase must not double-record.
    }
    EXPECT_EQ(obs.tracer().spans().size(), 1u);
    EXPECT_EQ(obs.tracer().spans()[0].name, "real");
}

} // namespace
