/**
 * @file
 * Tests for the cache models: exact set-associative LRU behaviour, the
 * analytic streaming-reuse model, and their agreement on the canonical
 * LSTM access pattern — including the Section III observation that a
 * weight matrix larger than the L2 is re-fetched nearly in full every
 * timestep (actually-loaded data many times the matrix size).
 */

#include <gtest/gtest.h>

#include "gpu/cache.hh"
#include "support/cache.hh"

namespace {

using namespace mflstm::gpu;
using mflstm::test::SetAssocCache;

TEST(SetAssocCache, HitsOnRepeatedAccess)
{
    SetAssocCache cache(1024, 2, 32);
    EXPECT_FALSE(cache.access(0));   // compulsory miss
    EXPECT_TRUE(cache.access(0));    // hit
    EXPECT_TRUE(cache.access(16));   // same line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(SetAssocCache, LruEvictsOldest)
{
    // 2-way, 32 B lines, 2 sets -> way size 64, capacity 128.
    SetAssocCache cache(128, 2, 32);
    // Three lines mapping to set 0: line addresses stride 64.
    EXPECT_FALSE(cache.access(0));
    EXPECT_FALSE(cache.access(64));
    EXPECT_FALSE(cache.access(128));  // evicts line 0 (LRU)
    EXPECT_FALSE(cache.access(0));    // line 0 gone
    EXPECT_TRUE(cache.access(128));   // line 128 still resident
}

TEST(SetAssocCache, LruRefreshOnHit)
{
    SetAssocCache cache(128, 2, 32);
    cache.access(0);
    cache.access(64);
    cache.access(0);    // refresh line 0
    cache.access(128);  // evicts line 64, not line 0
    EXPECT_TRUE(cache.access(0));
    EXPECT_FALSE(cache.access(64));
}

TEST(SetAssocCache, RangeAccessTouchesEveryLine)
{
    SetAssocCache cache(4096, 4, 32);
    cache.accessRange(0, 256);  // 8 lines
    EXPECT_EQ(cache.misses(), 8u);
    cache.accessRange(0, 256);
    EXPECT_EQ(cache.hits(), 8u);
    EXPECT_EQ(cache.dramBytes(), 8u * 32u);
}

TEST(SetAssocCache, ResetClearsState)
{
    SetAssocCache cache(1024, 2, 32);
    cache.access(0);
    cache.reset();
    EXPECT_EQ(cache.accesses(), 0u);
    EXPECT_FALSE(cache.access(0));
}

TEST(SetAssocCache, RejectsBadGeometry)
{
    EXPECT_THROW(SetAssocCache(1000, 3, 32), std::invalid_argument);
    EXPECT_THROW(SetAssocCache(1024, 0, 32), std::invalid_argument);
    EXPECT_THROW(SetAssocCache(96, 1, 32), std::invalid_argument);
}

TEST(SetAssocCache, ThrashingOnCyclicSweep)
{
    // The Section III pattern at unit scale: a working set 4x the cache
    // swept repeatedly misses on (nearly) every line, every sweep.
    SetAssocCache cache(4096, 8, 32);
    const std::size_t footprint = 4 * 4096;
    const int sweeps = 5;
    for (int s = 0; s < sweeps; ++s)
        cache.accessRange(0, footprint);

    EXPECT_GT(cache.missRate(), 0.95);
    // Actually-loaded bytes are ~sweeps x footprint — the paper's
    // "loaded data is many times the original data size".
    EXPECT_GT(cache.dramBytes(), 4u * footprint);
}

TEST(SetAssocCache, ResidentWorkingSetLoadsOnce)
{
    SetAssocCache cache(64 * 1024, 16, 32);
    const std::size_t footprint = 16 * 1024;  // fits comfortably
    for (int s = 0; s < 5; ++s)
        cache.accessRange(0, footprint);
    EXPECT_EQ(cache.dramBytes(), footprint);
}

TEST(StreamingModel, FittingSetIsCompulsoryOnly)
{
    EXPECT_DOUBLE_EQ(streamingReuseDramBytes(1000.0, 10.0, 10000.0),
                     1000.0);
}

TEST(StreamingModel, ThrashingApproachesSweepsTimesFootprint)
{
    const double f = 4.0e6;
    const double traffic = streamingReuseDramBytes(f, 10.0, 256.0e3);
    EXPECT_GT(traffic, 0.9 * 10.0 * f);
    EXPECT_LE(traffic, 10.0 * f);
}

TEST(StreamingModel, ZeroInputsZeroTraffic)
{
    EXPECT_DOUBLE_EQ(streamingReuseDramBytes(0.0, 5.0, 1000.0), 0.0);
    EXPECT_DOUBLE_EQ(streamingReuseDramBytes(100.0, 0.0, 1000.0), 0.0);
}

TEST(StreamingModel, MonotoneInSweeps)
{
    const double c = 256.0e3;
    double prev = 0.0;
    for (double s = 1.0; s <= 8.0; ++s) {
        const double t = streamingReuseDramBytes(1.0e6, s, c);
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(StreamingModel, AgreesWithExactCacheOnThrashing)
{
    // Down-scaled cross-validation: exact simulation vs analytic model.
    const std::size_t cap = 8 * 1024;
    const std::size_t footprint = 32 * 1024;
    const int sweeps = 6;

    SetAssocCache cache(cap, 8, 32);
    for (int s = 0; s < sweeps; ++s)
        cache.accessRange(0, footprint);

    const double analytic = streamingReuseDramBytes(
        static_cast<double>(footprint), sweeps,
        static_cast<double>(cap));
    const double exact = static_cast<double>(cache.dramBytes());
    // Within 20%: the analytic residency factor is a deliberate
    // smoothing of conflict behaviour.
    EXPECT_NEAR(analytic / exact, 1.0, 0.2);
}

TEST(StreamingModel, AgreesWithExactCacheOnResidentSet)
{
    const std::size_t cap = 64 * 1024;
    const std::size_t footprint = 16 * 1024;
    SetAssocCache cache(cap, 16, 32);
    for (int s = 0; s < 4; ++s)
        cache.accessRange(0, footprint);

    const double analytic = streamingReuseDramBytes(
        static_cast<double>(footprint), 4.0, static_cast<double>(cap));
    EXPECT_DOUBLE_EQ(analytic, static_cast<double>(cache.dramBytes()));
}

} // namespace
