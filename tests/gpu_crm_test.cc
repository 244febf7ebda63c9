/**
 * @file
 * Tests for the CTA-reorganization module (Section V-B, Fig. 12): DTID
 * decoding and prefix-sum STID -> HTID compaction (the functional pass
 * in the test support library), pipeline timing of the priced pass, and
 * the GMU routing that decides which kernels pass through it.
 */

#include <gtest/gtest.h>

#include "gpu/crm.hh"
#include "gpu/gmu.hh"
#include "support/crm.hh"

namespace {

using namespace mflstm::gpu;
using mflstm::test::CrmRemap;
using mflstm::test::reorganize;

class CrmTest : public ::testing::Test
{
  protected:
    GpuConfig cfg = GpuConfig::tegraX1();
    CtaReorgModule crm{cfg};
};

/** The disable mask a pass decoded: the STIDs it left without an HTID. */
std::vector<bool>
disabledMask(const CrmRemap &res)
{
    std::vector<bool> mask;
    for (std::uint32_t htid : res.htidOf)
        mask.push_back(htid == CrmRemap::kDisabled);
    return mask;
}

TEST_F(CrmTest, DecodeDisabledOneThreadPerRow)
{
    const auto mask = disabledMask(reorganize({1, 3}, 1, 6));
    const std::vector<bool> expect = {false, true, false, true, false,
                                      false};
    EXPECT_EQ(mask, expect);
}

TEST_F(CrmTest, DecodeDisabledMultipleThreadsPerRow)
{
    const auto mask = disabledMask(reorganize({1}, 4, 12));
    for (std::uint32_t t = 0; t < 12; ++t) {
        EXPECT_EQ(mask[t], t >= 4 && t < 8) << "thread " << t;
    }
}

TEST_F(CrmTest, DecodeRejectsZeroThreadsPerRow)
{
    EXPECT_THROW(reorganize({0}, 0, 4), std::invalid_argument);
}

TEST_F(CrmTest, ReorganizeCompactsHtids)
{
    // Rows 0 and 2 trivial out of 5 single-thread rows.
    const CrmRemap res = reorganize({0, 2}, 1, 5);
    EXPECT_EQ(res.activeThreads, 3u);
    EXPECT_EQ(res.disabledThreads, 2u);

    EXPECT_EQ(res.htidOf[0], CrmRemap::kDisabled);
    EXPECT_EQ(res.htidOf[1], 0u);
    EXPECT_EQ(res.htidOf[2], CrmRemap::kDisabled);
    EXPECT_EQ(res.htidOf[3], 1u);
    EXPECT_EQ(res.htidOf[4], 2u);
}

TEST_F(CrmTest, CompactionIsDenseAndOrderPreserving)
{
    // Arbitrary skip set: surviving HTIDs must be 0..k-1 in STID order.
    const CrmRemap res = reorganize({3, 4, 5, 10, 31, 32, 63}, 1, 128);
    std::uint32_t expect = 0;
    for (std::uint32_t stid = 0; stid < 128; ++stid) {
        if (res.htidOf[stid] == CrmRemap::kDisabled)
            continue;
        EXPECT_EQ(res.htidOf[stid], expect++);
    }
    EXPECT_EQ(expect, res.activeThreads);
    EXPECT_EQ(res.activeThreads + res.disabledThreads, 128u);
}

TEST_F(CrmTest, FullWarpsAfterCompaction)
{
    // Disable exactly one whole warp's worth of scattered rows: the
    // surviving threads pack into one fewer warp.
    std::vector<std::uint32_t> rows;
    for (std::uint32_t r = 0; r < 64; r += 2)
        rows.push_back(r);
    const CrmRemap res = reorganize(rows, 1, 64);
    EXPECT_EQ(res.activeThreads, 32u);
    // Every surviving HTID is below 32: one fully populated warp.
    for (std::uint32_t stid = 0; stid < 64; ++stid) {
        if (res.htidOf[stid] != CrmRemap::kDisabled) {
            EXPECT_LT(res.htidOf[stid], 32u);
        }
    }
}

TEST_F(CrmTest, PipelineCyclesScaleWithThreads)
{
    const double small = crm.pipelineCycles(32);
    const double large = crm.pipelineCycles(3200);
    EXPECT_DOUBLE_EQ(small, cfg.crmPipelineCycles + 1.0);
    EXPECT_DOUBLE_EQ(large, cfg.crmPipelineCycles + 100.0);
}

TEST_F(CrmTest, SummaryMatchesFullPass)
{
    // The priced pass, fed the functional pass's disabled count, keeps
    // exactly the threads the remap kept.
    const CrmRemap full = reorganize({1, 2, 3}, 1, 100);
    const CrmResult sum = crm.reorganizeSummary(full.disabledThreads, 100);
    EXPECT_EQ(full.disabledThreads, 3u);
    EXPECT_EQ(full.activeThreads, sum.activeThreads);
    EXPECT_DOUBLE_EQ(sum.cycles, crm.pipelineCycles(100));
}

TEST_F(CrmTest, EnergyProportionalToThreads)
{
    const CrmResult a = crm.reorganizeSummary(0, 1000);
    const CrmResult b = crm.reorganizeSummary(0, 2000);
    EXPECT_NEAR(b.energyJ / a.energyJ, 2.0, 1e-9);
}

TEST(GmuTest, RoutesOnlyRowSkipKernels)
{
    GpuConfig cfg = GpuConfig::tegraX1();
    GridManagementUnit gmu(cfg, true);

    KernelDesc plain;
    plain.ctas = 4;
    plain.threadsPerCta = 128;
    const DispatchInfo d1 = gmu.dispatch(plain);
    EXPECT_FALSE(d1.routedThroughCrm);
    EXPECT_EQ(d1.activeThreads, 512u);

    KernelDesc skip = plain;
    skip.hasRowSkipArg = true;
    skip.disabledThreads = 100;
    const DispatchInfo d2 = gmu.dispatch(skip);
    EXPECT_TRUE(d2.routedThroughCrm);
    EXPECT_EQ(d2.activeThreads, 412u);
    EXPECT_GT(d2.crmCycles, 0.0);

    EXPECT_EQ(gmu.kernelsDispatched(), 2u);
    EXPECT_EQ(gmu.kernelsThroughCrm(), 1u);
}

TEST(GmuTest, NoCrmHardwareMeansNoRouting)
{
    GpuConfig cfg = GpuConfig::tegraX1();
    GridManagementUnit gmu(cfg, false);

    KernelDesc skip;
    skip.ctas = 1;
    skip.threadsPerCta = 128;
    skip.hasRowSkipArg = true;
    skip.disabledThreads = 64;
    const DispatchInfo d = gmu.dispatch(skip);
    EXPECT_FALSE(d.routedThroughCrm);
    EXPECT_EQ(d.activeThreads, 128u);
    EXPECT_DOUBLE_EQ(d.crmCycles, 0.0);
}

} // namespace
