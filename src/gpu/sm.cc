#include "gpu/sm.hh"

#include <algorithm>
#include <cmath>

namespace mflstm {
namespace gpu {

const char *
toString(KernelBound b)
{
    switch (b) {
      case KernelBound::Compute:
        return "compute";
      case KernelBound::DequantIssue:
        return "dequant-issue";
      case KernelBound::Bandwidth:
        return "bandwidth";
      case KernelBound::Occupancy:
        return "occupancy";
      case KernelBound::L2:
        return "l2";
    }
    return "unknown";
}

StallBreakdown &
StallBreakdown::operator+=(const StallBreakdown &rhs)
{
    offChipMemory += rhs.offChipMemory;
    onChipBandwidth += rhs.onChipBandwidth;
    synchronization += rhs.synchronization;
    executionDependency += rhs.executionDependency;
    other += rhs.other;
    return *this;
}

double
residencyCapacityBytes(const GpuConfig &cfg, WeightResidency r)
{
    const double sms = static_cast<double>(cfg.numSms);
    switch (r) {
      case WeightResidency::None:
        return 0.0;
      case WeightResidency::Shared:
        return static_cast<double>(cfg.sharedMemPerSmBytes) * sms *
               cfg.sharedResidencyFraction;
      case WeightResidency::Regfile:
        return static_cast<double>(cfg.regFileBytesPerSm) * sms *
               cfg.regfileResidencyFraction;
    }
    return 0.0;
}

double
residencyOccupancyFactor(const GpuConfig &cfg, WeightResidency r,
                         double pinned_bytes)
{
    if (r == WeightResidency::None || pinned_bytes <= 0.0)
        return 1.0;
    double raw = 0.0;
    const double sms = static_cast<double>(cfg.numSms);
    if (r == WeightResidency::Shared)
        raw = static_cast<double>(cfg.sharedMemPerSmBytes) * sms;
    else
        raw = static_cast<double>(cfg.regFileBytesPerSm) * sms;
    if (raw <= 0.0)
        return 1.0;
    const double pinned_share = std::min(1.0, pinned_bytes / raw);
    return 1.0 + cfg.residencyOccupancyPenalty * pinned_share;
}

KernelTiming
timeKernel(const GpuConfig &cfg, const KernelDesc &desc, bool crm_applied)
{
    KernelTiming t;

    // --- Resource demands, in core cycles ------------------------------
    const double divergence = crm_applied ? 1.0 : desc.divergenceFactor;
    t.flops = desc.flops;
    // Quantized weights pay an in-register convert on the FMA issue
    // pipes (no DP4A on TX1-class parts): one cvt lane-cycle per weight,
    // i.e. the same issue bandwidth an FMA (2 FLOP) occupies.
    const double dequant_cycles =
        desc.quantWeightElems * cfg.dequantOpsPerWeight * 2.0 /
        cfg.flopsPerCycle();
    // Pinned weights displace warps (regfile) or staging room (shared):
    // the surviving occupancy hides less latency, inflating the issue-
    // side cycles of the persistent kernel.
    const double occ = residencyOccupancyFactor(
        cfg, desc.residency, desc.residencyPinnedBytes);
    t.computeCycles = (desc.flops / cfg.flopsPerCycle() + dequant_cycles) *
                      divergence * occ;
    t.dequantCycles = dequant_cycles * divergence * occ;

    t.dramBytes =
        (desc.dramReadBytes + desc.dramWriteBytes) * desc.coalescingFactor;
    const double dram_cycles = t.dramBytes / cfg.dramBytesPerCycle();

    t.l2Bytes = desc.l2AccessBytes;
    const double l2_cycles = t.l2Bytes / cfg.l2BytesPerCycle;

    t.sharedBytes = desc.sharedBytes;
    // Shared-tier residency also contends for shared-memory bandwidth:
    // the resident weight rows are re-read through the same banks the
    // operand tiles use.
    const double shared_occ =
        desc.residency == WeightResidency::Shared ? occ : 1.0;
    const double shared_cycles =
        t.sharedBytes / cfg.sharedBytesPerCycle() * shared_occ;

    // --- Occupancy: how many CTA waves the grid needs -------------------
    const unsigned threads_per_cta = std::max(1u, desc.threadsPerCta);
    const unsigned ctas_per_sm =
        std::max(1u, std::min(cfg.maxCtasPerSm,
                              cfg.maxThreadsPerSm / threads_per_cta));
    const double concurrent_ctas =
        static_cast<double>(ctas_per_sm) * cfg.numSms;
    const double waves =
        std::max(1.0, std::ceil(desc.ctas / concurrent_ctas));
    t.smsUsed = static_cast<unsigned>(std::min(
        static_cast<double>(cfg.numSms),
        std::ceil(static_cast<double>(desc.ctas) / ctas_per_sm)));
    t.smsUsed = std::max(1u, t.smsUsed);

    const double sync_cycles =
        static_cast<double>(desc.syncsPerCta) * cfg.barrierCostCycles *
        waves;
    const double latency_cycles =
        t.dramBytes > 0.0 ? cfg.dramLatencyNs * cfg.coreClockGhz : 0.0;

    // --- Bottleneck resolution ------------------------------------------
    double exec_cycles = std::max({t.computeCycles, dram_cycles,
                                   l2_cycles, shared_cycles});
    t.reconfigured =
        shared_cycles > std::max({t.computeCycles, dram_cycles,
                                  l2_cycles});
    if (t.reconfigured) {
        // Shared memory is the binding constraint: the kernel is
        // re-configured with more, thinner threads so per-thread on-chip
        // demand stays legal; the extra threads and lost locality cost
        // a multiplicative slowdown (Section IV-C).
        exec_cycles = shared_cycles * cfg.reconfigPenalty;
    }

    // --- Bottleneck classification --------------------------------------
    // Mirrors the max() above: the resource that set exec_cycles.
    if (t.reconfigured) {
        t.boundBy = KernelBound::Occupancy;
    } else if (dram_cycles >= std::max({t.computeCycles, l2_cycles,
                                        shared_cycles})) {
        t.boundBy = KernelBound::Bandwidth;
    } else if (t.computeCycles >= l2_cycles) {
        t.boundBy = t.dequantCycles > 0.5 * t.computeCycles
                        ? KernelBound::DequantIssue
                        : KernelBound::Compute;
    } else {
        t.boundBy = KernelBound::L2;
    }

    t.crmCycles = 0.0;  // charged by the simulator's GMU model
    t.cycles = exec_cycles + sync_cycles + latency_cycles;
    t.timeUs = t.cycles / cfg.cyclesPerUs() + cfg.kernelLaunchUs;

    t.activeThreads = crm_applied
                          ? desc.totalThreads() - desc.disabledThreads
                          : desc.totalThreads();

    // --- Utilisation ------------------------------------------------------
    if (t.cycles > 0.0) {
        t.dramUtilization = std::min(1.0, dram_cycles / t.cycles);
        t.sharedUtilization = std::min(1.0, shared_cycles / t.cycles);
        t.l2Utilization = std::min(1.0, l2_cycles / t.cycles);
    }

    // --- Stall attribution ------------------------------------------------
    const double stall_total = std::max(0.0, t.cycles - t.computeCycles);
    const double p_offchip =
        std::max(0.0, dram_cycles - t.computeCycles) + latency_cycles;
    const double p_onchip =
        std::max(0.0, shared_cycles - t.computeCycles) +
        0.5 * std::max(0.0, l2_cycles - t.computeCycles);
    const double p_sync = sync_cycles;
    const double p_dep = 0.10 * t.computeCycles;
    const double p_other = 0.05 * exec_cycles + 1.0;

    const double p_sum = p_offchip + p_onchip + p_sync + p_dep + p_other;
    if (p_sum > 0.0 && stall_total > 0.0) {
        const double scale = stall_total / p_sum;
        t.stalls.offChipMemory = p_offchip * scale;
        t.stalls.onChipBandwidth = p_onchip * scale;
        t.stalls.synchronization = p_sync * scale;
        t.stalls.executionDependency = p_dep * scale;
        t.stalls.other = p_other * scale;
    }

    return t;
}

} // namespace gpu
} // namespace mflstm
