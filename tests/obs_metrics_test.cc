/**
 * @file
 * Tests for the metrics registry: instrument semantics, histogram
 * bucket-edge behaviour, and the JSON dump (parsed back with the obs
 * JSON parser, not string-matched).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "support/metrics.hh"

namespace {

using namespace mflstm::obs;
using mflstm::test::dumpedCounter;

TEST(Metrics, CounterAccumulates)
{
    MetricsRegistry reg;
    reg.counter("sim.kernels").add();
    reg.counter("sim.kernels").add(4.0);
    EXPECT_DOUBLE_EQ(reg.counter("sim.kernels").value(), 5.0);
    EXPECT_EQ(dumpedCounter(reg, "sim.kernels"), 5.0);
    EXPECT_EQ(dumpedCounter(reg, "missing"), std::nullopt);
}

TEST(Metrics, GaugeOverwrites)
{
    MetricsRegistry reg;
    reg.gauge("crm.compaction_ratio").set(0.25);
    reg.gauge("crm.compaction_ratio").set(0.75);
    EXPECT_DOUBLE_EQ(reg.gauge("crm.compaction_ratio").value(), 0.75);
}

TEST(Metrics, EmptyTracksInstrumentCreation)
{
    MetricsRegistry reg;
    EXPECT_TRUE(reg.empty());
    reg.counter("a");
    EXPECT_FALSE(reg.empty());
}

TEST(Metrics, HistogramBucketEdgesAreUpperInclusive)
{
    Histogram h({1.0, 10.0, 100.0});
    // Bucket layout: (-inf,1] (1,10] (10,100] (100,inf).
    h.observe(0.5);    // first bucket
    h.observe(1.0);    // exactly on edge 0 -> still first bucket
    h.observe(1.0001); // second bucket
    h.observe(10.0);   // second bucket (upper-inclusive)
    h.observe(100.0);  // third bucket
    h.observe(101.0);  // overflow

    ASSERT_EQ(h.buckets().size(), 4u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    const Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 6u);
    EXPECT_DOUBLE_EQ(s.min, 0.5);
    EXPECT_DOUBLE_EQ(s.max, 101.0);
    EXPECT_NEAR(s.sum, 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 101.0, 1e-9);
}

TEST(Metrics, HistogramRejectsBadEdges)
{
    EXPECT_THROW(Histogram({}), std::invalid_argument);
    EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, ExponentialEdgesSpanRangeAscending)
{
    const auto edges = Histogram::exponentialEdges(1.0, 1e6, 13);
    ASSERT_EQ(edges.size(), 13u);
    EXPECT_DOUBLE_EQ(edges.front(), 1.0);
    EXPECT_NEAR(edges.back(), 1e6, 1e-3);
    for (std::size_t i = 1; i < edges.size(); ++i)
        EXPECT_LT(edges[i - 1], edges[i]);
}

TEST(Metrics, RegistryReusesHistogramIgnoringNewEdges)
{
    MetricsRegistry reg;
    Histogram &h1 = reg.histogram("h", {1.0, 2.0});
    Histogram &h2 = reg.histogram("h", {5.0});  // ignored: exists
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.edges().size(), 2u);
}

TEST(Metrics, JsonDumpParsesAndRoundTrips)
{
    MetricsRegistry reg;
    reg.counter("drs.rows_skipped").add(1234.0);
    reg.gauge("cache.l2_hit_rate").set(0.875);
    Histogram &h =
        reg.histogram("sim.stall_cycles_hist.Sgemv", {10.0, 100.0});
    h.observe(5.0);
    h.observe(50.0);
    h.observe(500.0);

    std::ostringstream os;
    reg.writeJson(os);
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value());
    ASSERT_EQ(doc->kind, JsonValue::Kind::Object);

    const JsonValue *counters = doc->find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue *rows = counters->find("drs.rows_skipped");
    ASSERT_NE(rows, nullptr);
    EXPECT_DOUBLE_EQ(rows->number, 1234.0);

    const JsonValue *gauges = doc->find("gauges");
    ASSERT_NE(gauges, nullptr);
    const JsonValue *hit = gauges->find("cache.l2_hit_rate");
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ(hit->number, 0.875);

    const JsonValue *hists = doc->find("histograms");
    ASSERT_NE(hists, nullptr);
    const JsonValue *hist =
        hists->find("sim.stall_cycles_hist.Sgemv");
    ASSERT_NE(hist, nullptr);
    const JsonValue *count = hist->find("count");
    ASSERT_NE(count, nullptr);
    EXPECT_DOUBLE_EQ(count->number, 3.0);
    const JsonValue *buckets = hist->find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_EQ(buckets->items.size(), 3u);  // 2 edges + overflow
    EXPECT_DOUBLE_EQ(buckets->items[0].number, 1.0);
    EXPECT_DOUBLE_EQ(buckets->items[1].number, 1.0);
    EXPECT_DOUBLE_EQ(buckets->items[2].number, 1.0);
    const JsonValue *edges = hist->find("edges");
    ASSERT_NE(edges, nullptr);
    ASSERT_EQ(edges->items.size(), 2u);

    // The dump is deterministic: a second dump is byte-identical.
    std::ostringstream os2;
    reg.writeJson(os2);
    EXPECT_EQ(os.str(), os2.str());
}

TEST(Metrics, PrometheusExpositionFormat)
{
    MetricsRegistry reg;
    reg.counter("serve.requests").add(3.0);
    reg.gauge("dram.row_hit_rate").set(0.25);
    Histogram &h = reg.histogram("serve.exec_ms", {1.0, 10.0});
    h.observe(0.5);
    h.observe(5.0);
    h.observe(100.0);  // lands in the +Inf overflow bucket

    std::ostringstream os;
    reg.writePrometheus(os);
    const std::string text = os.str();

    // Instrument names are mapped onto the Prometheus charset.
    EXPECT_NE(text.find("# TYPE serve_requests counter"),
              std::string::npos);
    EXPECT_NE(text.find("serve_requests 3\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE dram_row_hit_rate gauge"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE serve_exec_ms histogram"),
              std::string::npos);

    // Buckets are cumulative ("le" upper bounds), closed by +Inf, and
    // followed by _sum/_count — the 0.0.4 text exposition shape.
    EXPECT_NE(text.find("serve_exec_ms_bucket{le=\"1\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("serve_exec_ms_bucket{le=\"10\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("serve_exec_ms_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("serve_exec_ms_count 3\n"), std::string::npos);
    EXPECT_NE(text.find("serve_exec_ms_sum 105.5\n"),
              std::string::npos);

    // Exposition is deterministic.
    std::ostringstream os2;
    reg.writePrometheus(os2);
    EXPECT_EQ(text, os2.str());
}

TEST(Metrics, LabeledSeriesAreDistinctInstruments)
{
    MetricsRegistry reg;
    reg.counter("fleet.dispatch_total", {{"replica", "r0"}}).add(2.0);
    reg.counter("fleet.dispatch_total", {{"replica", "r1"}}).add(5.0);
    reg.counter("fleet.dispatch_total").add(1.0);  // empty-label series

    EXPECT_DOUBLE_EQ(
        reg.counter("fleet.dispatch_total", {{"replica", "r0"}})
            .value(),
        2.0);
    EXPECT_DOUBLE_EQ(
        reg.counter("fleet.dispatch_total", {{"replica", "r1"}})
            .value(),
        5.0);
    EXPECT_DOUBLE_EQ(reg.counter("fleet.dispatch_total").value(), 1.0);

    EXPECT_EQ(dumpedCounter(reg, R"(fleet.dispatch_total{replica="r0"})"),
              2.0);
    EXPECT_EQ(dumpedCounter(reg, R"(fleet.dispatch_total{replica="r9"})"),
              std::nullopt);

    // Gauges and histograms follow the same series model.
    reg.gauge("fleet.state", {{"replica", "r0"}}).set(1.0);
    reg.gauge("fleet.state", {{"replica", "r1"}}).set(3.0);
    EXPECT_DOUBLE_EQ(
        reg.gauge("fleet.state", {{"replica", "r0"}}).value(), 1.0);
    reg.histogram("fleet.probe_ms", {{"replica", "r0"}}, {1.0, 10.0})
        .observe(0.5);
    EXPECT_EQ(reg.findHistogram("fleet.probe_ms", {{"replica", "r0"}})
                  ->snapshot()
                  .count,
              1u);
    EXPECT_EQ(reg.findHistogram("fleet.probe_ms"), nullptr);
}

TEST(Metrics, LabelOrderIsCanonicalized)
{
    MetricsRegistry reg;
    reg.counter("x", {{"a", "1"}, {"b", "2"}}).add(3.0);
    // Same labels, different order: the same series.
    EXPECT_DOUBLE_EQ(reg.counter("x", {{"b", "2"}, {"a", "1"}}).value(),
                     3.0);
    EXPECT_EQ(dumpedCounter(reg, R"(x{a="1",b="2"})"), 3.0);
    // Different value for one label: a distinct series.
    EXPECT_DOUBLE_EQ(reg.counter("x", {{"a", "1"}, {"b", "9"}}).value(),
                     0.0);
}

TEST(Metrics, PrometheusLabeledSeriesShareOneTypeLine)
{
    MetricsRegistry reg;
    reg.counter("fleet.dispatch_total", {{"replica", "r0"}}).add(2.0);
    reg.counter("fleet.dispatch_total", {{"replica", "r1"}}).add(5.0);
    reg.histogram("fleet.probe_ms", {{"replica", "r0"}}, {1.0})
        .observe(0.5);

    std::ostringstream os;
    reg.writePrometheus(os);
    const std::string text = os.str();

    // One # TYPE line covers every series of the family.
    std::size_t types = 0;
    for (std::size_t at = text.find("# TYPE fleet_dispatch_total");
         at != std::string::npos;
         at = text.find("# TYPE fleet_dispatch_total", at + 1))
        ++types;
    EXPECT_EQ(types, 1u);

    EXPECT_NE(text.find("fleet_dispatch_total{replica=\"r0\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("fleet_dispatch_total{replica=\"r1\"} 5\n"),
              std::string::npos);
    // Histogram buckets merge the series labels with "le".
    EXPECT_NE(
        text.find("fleet_probe_ms_bucket{replica=\"r0\",le=\"1\"} 1\n"),
        std::string::npos);
    EXPECT_NE(text.find("fleet_probe_ms_count{replica=\"r0\"} 1\n"),
              std::string::npos);
}

/** Undo exposition-format escaping: \\ -> \, \" -> ", \n -> newline. */
std::string
promUnescape(const std::string &s)
{
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '\\' && i + 1 < s.size()) {
            const char next = s[++i];
            out += next == 'n' ? '\n' : next;
        } else {
            out += s[i];
        }
    }
    return out;
}

TEST(Metrics, PrometheusLabelEscapingRoundTrips)
{
    // A hostile label value exercising every escape in the spec:
    // backslash, double quote and newline.
    const std::string hostile = "r0\\weird\"quote\nnewline";
    MetricsRegistry reg;
    reg.counter("fleet.dispatch_total", {{"replica", hostile}})
        .add(1.0);

    std::ostringstream os;
    reg.writePrometheus(os);
    const std::string text = os.str();

    // The raw value must not appear (the newline would break the
    // line-oriented format); the escaped form must.
    EXPECT_EQ(text.find(hostile), std::string::npos);
    const std::string escaped = "r0\\\\weird\\\"quote\\nnewline";
    const std::string sample =
        "fleet_dispatch_total{replica=\"" + escaped + "\"} 1\n";
    ASSERT_NE(text.find(sample), std::string::npos) << text;

    // Round trip: un-escaping the rendered value restores the
    // original byte-for-byte.
    EXPECT_EQ(promUnescape(escaped), hostile);

    // Every emitted sample line still parses as single-line entries:
    // no unescaped newline splits a sample in half.
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        EXPECT_NE(line.find(' '), std::string::npos) << line;
    }
}

} // namespace
