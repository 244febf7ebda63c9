/**
 * @file
 * Unit tests of the benchmark's own statistics, load generator and span
 * tracer.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "sysbench/loadgen.hh"
#include "sysbench/spans.hh"
#include "sysbench/stats.hh"

namespace mflstm {
namespace sysbench {
namespace {

TEST(Stats, NearestRankPercentile)
{
    const std::vector<double> v = {5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
    EXPECT_EQ(percentile(v, 0.5), 5.0);   // rank ceil(5) = 5
    EXPECT_EQ(percentile(v, 0.9), 9.0);   // rank 9
    EXPECT_EQ(percentile(v, 0.91), 10.0); // rank ceil(9.1) = 10
    EXPECT_EQ(percentile(v, 1.0), 10.0);
    EXPECT_EQ(percentile(v, 0.0), 1.0);
    EXPECT_EQ(percentile({}, 0.5), 0.0);
    EXPECT_EQ(median({7.0}), 7.0);
}

TEST(Stats, HighestSupportedQuantileNeedsTenSamplesBeyond)
{
    EXPECT_EQ(highestSupportedQuantile(19), 0.0);
    EXPECT_EQ(highestSupportedQuantile(20), 0.5);
    EXPECT_EQ(highestSupportedQuantile(99), 0.5);
    EXPECT_EQ(highestSupportedQuantile(100), 0.9);
    EXPECT_EQ(highestSupportedQuantile(999), 0.9);
    EXPECT_EQ(highestSupportedQuantile(1000), 0.99);
    EXPECT_EQ(highestSupportedQuantile(10000), 0.999);
}

TEST(Stats, SummaryReportsCountAndTop)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    const Summary s = summarize(v);
    EXPECT_EQ(s.n, 1000u);
    EXPECT_EQ(s.p50, 500.0);
    EXPECT_EQ(s.p90, 900.0);
    EXPECT_EQ(s.p99, 990.0);
    EXPECT_EQ(s.topQuantile, 0.99);
    EXPECT_EQ(s.topValue, 990.0);
    EXPECT_DOUBLE_EQ(geomean({1.0, 4.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 4.0}), 2.5);
}

TEST(LoadGen, ScheduleIsByteIdenticalPerSeed)
{
    const auto a = poissonSchedule(1500.0, 2.0, 42);
    const auto b = poissonSchedule(1500.0, 2.0, 42);
    const auto c = poissonSchedule(1500.0, 2.0, 43);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    // Pinned head of the seed-42 schedule: a change to the generator
    // changes the load of every serve workload, so it must fail here.
    ASSERT_EQ(a.size(), 2991u);
    EXPECT_EQ(a[0], 938088);
    EXPECT_EQ(a[1], 1617397);
    EXPECT_EQ(a[2], 2547339);
    EXPECT_EQ(deriveSeed(1, "MR/rep0/light"), 4956300497261758244ull);
}

TEST(LoadGen, ScheduleIsOrderedBoundedAndAtRate)
{
    const auto due = poissonSchedule(4500.0, 4.0, 7);
    ASSERT_FALSE(due.empty());
    for (std::size_t i = 1; i < due.size(); ++i)
        EXPECT_LE(due[i - 1], due[i]);
    EXPECT_GE(due.front(), 0);
    EXPECT_LT(due.back(), 4'000'000'000);
    // 18000 expected arrivals; a Poisson count's sd is ~134.
    EXPECT_NEAR(static_cast<double>(due.size()), 18000.0, 700.0);
    EXPECT_TRUE(poissonSchedule(0.0, 1.0, 1).empty());
}

TEST(LoadGen, DerivedSeedsAreDistinctAndAvoidTrainingSeeds)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t s = 0; s < 200; ++s) {
        for (const char *tag : {"MR/rep0/light", "MR/rep0/heavy", "x"}) {
            const std::uint64_t d = deriveSeed(s, tag);
            EXPECT_FALSE(d >= 101 && d <= 106);
            EXPECT_TRUE(seen.insert(d).second);
        }
    }
    EXPECT_EQ(deriveSeed(5, "a"), deriveSeed(5, "a"));
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    Tracer t(true);
    const std::uint64_t root = t.add("root", Layer::Serve, 0, 100);
    t.add("a", Layer::Core, 10, 40, root);
    t.add("b", Layer::Core, 30, 50, root);   // overlaps a
    t.add("c", Layer::Gpu, 90, 120, root);   // clipped at the parent's end
    const std::vector<double> self = t.selfTimesUs();
    ASSERT_EQ(self.size(), 4u);
    EXPECT_DOUBLE_EQ(self[0], 100.0 - 40.0 - 10.0);
    EXPECT_DOUBLE_EQ(self[1], 30.0);
    const auto layers = t.layerSelfUs();
    EXPECT_DOUBLE_EQ(layers[static_cast<std::size_t>(Layer::Serve)], 50.0);
    EXPECT_DOUBLE_EQ(layers[static_cast<std::size_t>(Layer::Core)], 50.0);
    EXPECT_DOUBLE_EQ(layers[static_cast<std::size_t>(Layer::Gpu)], 30.0);
}

TEST(Spans, ScopesNestAndDisabledTracerRecordsNothing)
{
    Tracer t(true);
    {
        auto outer = t.scope("outer", Layer::Sched);
        auto inner = t.scope("inner", Layer::Runtime);
        inner.setItems(3.0);
    }
    ASSERT_EQ(t.spans().size(), 2u);
    EXPECT_EQ(t.spans()[0].parent, 0u);
    EXPECT_EQ(t.spans()[1].parent, t.spans()[0].id);
    EXPECT_EQ(t.spans()[1].items, 3.0);
    EXPECT_LE(t.spans()[1].endUs, t.spans()[0].endUs);
    std::ostringstream os;
    t.writeChromeTrace(os);
    EXPECT_NE(os.str().find("\"name\":\"inner\""), std::string::npos);

    Tracer off(false);
    {
        auto s = off.scope("x", Layer::Io);
        s.setItems(1.0);
    }
    EXPECT_EQ(off.add("y", Layer::Io, 0, 1), 0u);
    EXPECT_TRUE(off.spans().empty());
}

} // namespace
} // namespace sysbench
} // namespace mflstm
