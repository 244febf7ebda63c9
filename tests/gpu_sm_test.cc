/**
 * @file
 * Tests for the SM timing model (roofline + stall attribution), the
 * energy model, and the Simulator facade.
 */

#include <gtest/gtest.h>

#include "gpu/energy.hh"
#include "gpu/simulator.hh"
#include "gpu/sm.hh"
#include "hw/backend.hh"
#include "support/trace.hh"

namespace {

using namespace mflstm::gpu;

KernelDesc
memoryBoundKernel()
{
    // Sgemv(U, h) at H = 512 on the TX1: 4.19 MB of weights, 2.1 MFLOP.
    KernelDesc k;
    k.name = "sgemv";
    k.klass = KernelClass::Sgemv;
    k.flops = 2.0 * 4 * 512 * 512;
    k.dramReadBytes = 4.0 * 512 * 512 * 4;
    k.l2AccessBytes = k.dramReadBytes;
    k.sharedBytes = 4.0 * 512 * 512 * 4;
    k.ctas = 16;
    k.threadsPerCta = 128;
    k.syncsPerCta = 2;
    return k;
}

KernelDesc
computeBoundKernel()
{
    KernelDesc k;
    k.name = "gemm";
    k.klass = KernelClass::Sgemm;
    k.flops = 1.0e9;
    k.dramReadBytes = 1.0e6;
    k.l2AccessBytes = 2.0e6;
    k.sharedBytes = 1.0e6;
    k.ctas = 64;
    k.threadsPerCta = 128;
    return k;
}

TEST(SmTiming, MemoryBoundKernelIsDramLimited)
{
    const GpuConfig cfg = GpuConfig::tegraX1();
    const KernelTiming t = timeKernel(cfg, memoryBoundKernel());

    const double dram_cycles = t.dramBytes / cfg.dramBytesPerCycle();
    EXPECT_GT(t.cycles, dram_cycles);            // plus sync/latency
    EXPECT_LT(t.cycles, dram_cycles * 1.05);     // but barely
    EXPECT_GT(t.dramUtilization, 0.9);
    EXPECT_LT(t.sharedUtilization, 0.3);         // Fig. 6 shape
}

TEST(SmTiming, MemoryBoundStallsAreOffChip)
{
    const GpuConfig cfg = GpuConfig::tegraX1();
    const KernelTiming t = timeKernel(cfg, memoryBoundKernel());
    const StallBreakdown &s = t.stalls;
    EXPECT_GT(s.offChipMemory / s.total(), 0.6);  // Fig. 4 shape
    EXPECT_GT(s.offChipMemory, s.onChipBandwidth);
    EXPECT_GT(s.offChipMemory, s.synchronization);
}

TEST(SmTiming, ComputeBoundKernelTracksFlops)
{
    const GpuConfig cfg = GpuConfig::tegraX1();
    const KernelTiming t = timeKernel(cfg, computeBoundKernel());
    const double compute_cycles = 1.0e9 / cfg.flopsPerCycle();
    EXPECT_NEAR(t.computeCycles, compute_cycles, 1.0);
    EXPECT_LT(t.cycles, compute_cycles * 1.1);
    EXPECT_FALSE(t.reconfigured);
}

TEST(SmTiming, SharedOvercommitTriggersReconfiguration)
{
    const GpuConfig cfg = GpuConfig::tegraX1();
    KernelDesc k = computeBoundKernel();
    k.sharedBytes = 1.0e9;  // on-chip demand dominates everything
    const KernelTiming t = timeKernel(cfg, k);
    EXPECT_TRUE(t.reconfigured);

    const double shared_cycles = 1.0e9 / cfg.sharedBytesPerCycle();
    EXPECT_GT(t.cycles, shared_cycles * cfg.reconfigPenalty * 0.99);
}

TEST(SmTiming, DivergenceInflatesComputeUnlessCrmApplied)
{
    const GpuConfig cfg = GpuConfig::tegraX1();
    KernelDesc k = computeBoundKernel();
    k.divergenceFactor = 2.0;

    const KernelTiming divergent = timeKernel(cfg, k, false);
    const KernelTiming compacted = timeKernel(cfg, k, true);
    EXPECT_NEAR(divergent.computeCycles / compacted.computeCycles, 2.0,
                1e-9);
    EXPECT_GT(divergent.cycles, compacted.cycles);
}

TEST(SmTiming, CoalescingInflatesDramTraffic)
{
    const GpuConfig cfg = GpuConfig::tegraX1();
    KernelDesc k = memoryBoundKernel();
    k.coalescingFactor = 1.5;
    const KernelTiming t = timeKernel(cfg, k);
    EXPECT_NEAR(t.dramBytes, k.dramReadBytes * 1.5, 1.0);
}

TEST(SmTiming, DequantConvertChargedOnIssuePipesUnlessDotUnits)
{
    // The int8 twin of the H = 512 Sgemv: same work, plus one in-
    // register convert per weight element.
    const KernelDesc fp32 = memoryBoundKernel();
    KernelDesc int8 = fp32;
    int8.quantWeightElems = 4.0 * 512 * 512;

    // TX1: each convert occupies the issue bandwidth of one FMA.
    const GpuConfig tx1 = GpuConfig::tegraX1();
    const double convert_cycles = int8.quantWeightElems * 2.0 /
                                  tx1.flopsPerCycle();
    ASSERT_GT(tx1.dequantOpsPerWeight, 0.0);
    EXPECT_DOUBLE_EQ(timeKernel(tx1, int8).computeCycles -
                         timeKernel(tx1, fp32).computeCycles,
                     convert_cycles * tx1.dequantOpsPerWeight);

    // DP4A-class dot units consume packed codes directly: no convert.
    const GpuConfig &dp4a = mflstm::hw::registry().get("dp4a").config;
    ASSERT_EQ(dp4a.dequantOpsPerWeight, 0.0);
    EXPECT_EQ(timeKernel(dp4a, int8).computeCycles,
              timeKernel(dp4a, fp32).computeCycles);
}

TEST(SmTiming, LaunchOverheadAlwaysCharged)
{
    const GpuConfig cfg = GpuConfig::tegraX1();
    KernelDesc empty;
    empty.ctas = 1;
    empty.threadsPerCta = 32;
    const KernelTiming t = timeKernel(cfg, empty);
    EXPECT_GE(t.timeUs, cfg.kernelLaunchUs);
}

TEST(SmTiming, StallsSumToNonComputeCycles)
{
    const GpuConfig cfg = GpuConfig::tegraX1();
    for (const KernelDesc &k :
         {memoryBoundKernel(), computeBoundKernel()}) {
        const KernelTiming t = timeKernel(cfg, k);
        EXPECT_NEAR(t.stalls.total(), t.cycles - t.computeCycles,
                    t.cycles * 1e-9);
    }
}

TEST(Energy, ComponentsAddUp)
{
    const GpuConfig cfg = GpuConfig::tegraX1();
    ActivitySummary a;
    a.timeSeconds = 0.01;
    a.flops = 1e9;
    a.dramBytes = 1e8;
    a.l2Bytes = 2e8;
    a.sharedBytes = 5e8;
    a.issueBusyFraction = 0.1;
    a.crmPresent = true;
    a.crmDynamicJ = 1e-6;

    const EnergyReport e = computeEnergy(cfg, a);
    EXPECT_DOUBLE_EQ(e.totalJ(), e.staticJ + e.gpuDynamicJ + e.dramJ +
                                     e.onChipJ + e.crmJ);
    EXPECT_DOUBLE_EQ(e.staticJ,
                     (cfg.socStaticW + cfg.gpuIdleW) * 0.01);
    EXPECT_GT(e.dramJ, 0.0);
    EXPECT_GT(e.crmJ, 1e-6);  // dynamic + static share
}

TEST(Energy, NoCrmNoStaticAdder)
{
    const GpuConfig cfg = GpuConfig::tegraX1();
    ActivitySummary a;
    a.timeSeconds = 1.0;
    a.crmPresent = false;
    const EnergyReport e = computeEnergy(cfg, a);
    EXPECT_DOUBLE_EQ(e.crmJ, 0.0);
}

TEST(Simulator, TraceAggregatesKernels)
{
    Simulator sim(GpuConfig::tegraX1());
    const KernelTrace trace = mflstm::test::traceOf(
        {memoryBoundKernel(), computeBoundKernel(), memoryBoundKernel()});
    const TraceResult res = sim.runTrace(trace);

    EXPECT_EQ(res.kernelCount, 3u);
    EXPECT_EQ(res.kernelsPerClass.at(KernelClass::Sgemv), 2u);
    EXPECT_EQ(res.kernelsPerClass.at(KernelClass::Sgemm), 1u);
    // The 1 GFLOP compute-bound Sgemm dominates two ~170 us Sgemvs.
    EXPECT_GT(res.classShare(KernelClass::Sgemm),
              res.classShare(KernelClass::Sgemv));
    EXPECT_NEAR(res.classShare(KernelClass::Sgemv) +
                    res.classShare(KernelClass::Sgemm),
                1.0, 1e-9);
    EXPECT_GT(res.energy.totalJ(), 0.0);
}

TEST(Simulator, CrmChargedOnRowSkipKernels)
{
    Simulator with_crm(GpuConfig::tegraX1(), true);
    Simulator without_crm(GpuConfig::tegraX1(), false);

    KernelDesc k = memoryBoundKernel();
    k.hasRowSkipArg = true;
    k.disabledThreads = 1024;
    k.divergenceFactor = 1.6;

    const KernelTiming hw = with_crm.runKernel(k);
    const KernelTiming sw = without_crm.runKernel(k);
    EXPECT_GT(hw.crmCycles, 0.0);
    EXPECT_DOUBLE_EQ(sw.crmCycles, 0.0);
    // CRM removes the divergence penalty; for this memory-bound kernel
    // the effect on total time is small but compute cycles shrink.
    EXPECT_LT(hw.computeCycles, sw.computeCycles);
}

TEST(Simulator, EmptyTraceIsEmptyResult)
{
    Simulator sim(GpuConfig::tegraX1());
    const TraceResult res = sim.runTrace({});
    EXPECT_EQ(res.kernelCount, 0u);
    EXPECT_DOUBLE_EQ(res.timeUs, 0.0);
    EXPECT_DOUBLE_EQ(res.classShare(KernelClass::Sgemv), 0.0);
}

TEST(GpuConfig, DerivedQuantities)
{
    const GpuConfig cfg = GpuConfig::tegraX1();
    EXPECT_DOUBLE_EQ(cfg.flopsPerCycle(), 512.0);
    EXPECT_NEAR(cfg.dramBytesPerCycle(), 25.6 / 0.998, 1e-9);
    EXPECT_DOUBLE_EQ(cfg.sharedBytesPerCycle(), 256.0);
    EXPECT_NEAR(cfg.cyclesPerUs(), 998.0, 1e-9);
}

} // namespace
