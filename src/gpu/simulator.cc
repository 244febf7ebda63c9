#include "gpu/simulator.hh"

#include <algorithm>
#include <array>

namespace mflstm {
namespace gpu {

namespace {

/// bucket edges for cycle-valued histograms (1 cycle .. 1e9 cycles)
std::vector<double>
cycleEdges()
{
    return obs::Histogram::exponentialEdges(1.0, 1e9, 19);
}

} // anonymous namespace

double
TraceResult::classShare(KernelClass k) const
{
    if (timeUs <= 0.0)
        return 0.0;
    const auto it = timePerClassUs.find(k);
    return it == timePerClassUs.end() ? 0.0 : it->second / timeUs;
}

Simulator::Simulator(const GpuConfig &cfg, bool crm_present,
                     obs::Observer *obs, obs::TrafficLedger *ledger)
    : cfg_(cfg), gmu_(cfg_, crm_present), obs_(obs), ledger_(ledger)
{
    if (obs_) {
        gmu_.setMetrics(&obs_->metrics());
        for (unsigned sm = 0; sm < cfg_.numSms; ++sm) {
            obs_->tracer().setTrackName(
                obs::SpanTracer::kGpuPid, static_cast<int>(sm),
                "SM " + std::to_string(sm));
        }
    }
}

KernelTiming
Simulator::runKernel(const KernelDesc &desc, std::size_t launches)
{
    const DispatchInfo dispatch = gmu_.dispatch(desc, launches);
    KernelTiming t = timeKernel(cfg_, desc, dispatch.routedThroughCrm);
    if (dispatch.routedThroughCrm) {
        t.crmCycles = dispatch.crmCycles;
        t.crmEnergyJ = dispatch.crmEnergyJ;
        t.cycles += dispatch.crmCycles;
        t.timeUs += dispatch.crmCycles / cfg_.cyclesPerUs();
        t.activeThreads = dispatch.activeThreads;
    }
    return t;
}

void
Simulator::recordKernel(const KernelDesc &desc, const KernelLaunch &at,
                        const KernelTiming &t, bool routed_through_crm)
{
    obs::MetricsRegistry &m = obs_->metrics();
    const char *klass = toString(desc.klass);

    m.counter("sim.kernels").add(1.0);
    m.counter("sim.time_us").add(t.timeUs);
    m.counter("sim.flops").add(t.flops);
    m.counter("sim.dram_bytes").add(t.dramBytes);
    m.counter("sim.weight_dram_bytes").add(desc.dramWeightBytes);
    if (desc.residency != WeightResidency::None) {
        m.counter("sim.persistent_kernels").add(1.0);
        m.counter("sim.residency_pinned_bytes")
            .add(desc.residencyPinnedBytes);
        m.counter("sim.residency_reload_bytes")
            .add(desc.dramResidencyReloadBytes);
    }
    m.counter(std::string("sim.stall_cycles.") + klass)
        .add(t.stalls.total());
    m.histogram(std::string("sim.stall_cycles_hist.") + klass,
                cycleEdges())
        .observe(t.stalls.total());
    if (t.reconfigured)
        m.counter("sim.kernels_reconfigured").add(1.0);

    if (desc.klass == KernelClass::Drs)
        m.counter("drs.scan_kernels").add(1.0);
    if (desc.hasRowSkipArg) {
        // One thread per output row in the lowered Sgemv/Sgemm grids, so
        // disabled thread slots count skipped rows.
        m.counter("drs.kernels_with_skip").add(1.0);
        m.counter("drs.rows_skipped")
            .add(static_cast<double>(desc.disabledThreads));
        m.histogram("drs.rows_skipped_per_kernel",
                    obs::Histogram::exponentialEdges(1.0, 1e6, 13))
            .observe(static_cast<double>(desc.disabledThreads));
    }

    // --- Timeline span, one per occupied SM -----------------------------
    obs::SpanTracer &tracer = obs_->tracer();
    const double start = tracer.simCursorUs();
    const unsigned sms = std::max(1u, std::min(t.smsUsed, cfg_.numSms));
    for (unsigned sm = 0; sm < sms; ++sm) {
        obs::TraceSpan span;
        span.name = desc.name;
        span.category = klass;
        span.pid = obs::SpanTracer::kGpuPid;
        span.tid = static_cast<int>(sm);
        span.startUs = start;
        span.durUs = t.timeUs;
        span.numArgs = {
            {"flops", t.flops},
            {"dram_bytes", t.dramBytes},
            {"l2_bytes", t.l2Bytes},
            {"shared_bytes", t.sharedBytes},
            {"stall_offchip_cycles", t.stalls.offChipMemory},
            {"stall_onchip_cycles", t.stalls.onChipBandwidth},
            {"stall_sync_cycles", t.stalls.synchronization},
            {"stall_dep_cycles", t.stalls.executionDependency},
            {"stall_other_cycles", t.stalls.other},
            {"ctas", static_cast<double>(desc.ctas)},
            {"layer", static_cast<double>(desc.layer)},
            {"timestep", static_cast<double>(at.timestep)},
            {"tissue", static_cast<double>(at.tissue)},
        };
        span.strArgs = {{"class", klass}};
        if (routed_through_crm)
            span.numArgs.emplace_back(
                "crm_cycles", t.crmCycles);
        tracer.record(std::move(span));
    }
    tracer.advanceSimCursor(t.timeUs);
}

TraceResult
Simulator::runTrace(const KernelTrace &trace)
{
    TraceResult res;
    const std::size_t crm_before = gmu_.kernelsThroughCrm();
    const std::vector<KernelDesc> &kernels = trace.kernels();

    // Every launch of a stored kernel times alike (nothing but the
    // leading-launch overlap below carries state between launches), so
    // each distinct kernel is dispatched and timed once. The GMU is told
    // how many launches it stands for, so its counters count launches.
    std::vector<std::size_t> launch_counts(kernels.size(), 0);
    for (const KernelLaunch &l : trace.launches())
        ++launch_counts[l.kernel];
    std::vector<KernelTiming> timings(kernels.size());
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        if (launch_counts[k] > 0)
            timings[k] = runKernel(kernels[k], launch_counts[k]);
    }

    double dram_util_weighted = 0.0;
    double shared_util_weighted = 0.0;
    double crm_energy = 0.0;
    // Per-class sums in launch order, folded into the result maps once.
    constexpr std::size_t kClasses =
        static_cast<std::size_t>(KernelClass::Other) + 1;
    std::array<double, kClasses> class_time{};
    std::array<std::size_t, kClasses> class_count{};

    // Walk the launches in trace order and add every term per launch, so
    // each sum is the one a launch-by-launch simulation produces.
    bool first = true;
    for (const KernelLaunch &l : trace.launches()) {
        const KernelDesc &desc = kernels[l.kernel];
        KernelTiming t = timings[l.kernel];

        // Back-to-back launches overlap the previous kernel's execution:
        // only the leading kernel pays the full launch overhead.
        if (!first) {
            t.timeUs -=
                cfg_.kernelLaunchUs - cfg_.streamedLaunchUs();
        }
        first = false;

        if (obs_)
            recordKernel(desc, l, t, t.crmCycles > 0.0);
        if (ledger_) {
            // Sub-streams live inside dram{Read,Write}Bytes before the
            // coalescing inflation; scale them by the same factor so the
            // sample decomposes t.dramBytes in one unit.
            obs::TrafficSample s;
            s.layer = desc.layer;
            switch (desc.weightStream) {
              case WeightStream::W:
                s.matrix = obs::MatrixStream::W;
                break;
              case WeightStream::U:
                s.matrix = obs::MatrixStream::U;
                break;
              case WeightStream::None:
                s.matrix = obs::MatrixStream::None;
                break;
            }
            s.kernel = desc.name;
            s.kernelClass = toString(desc.klass);
            s.totalDramBytes = t.dramBytes;
            // dramWeightBytes covers codes + scales + residency reload;
            // the ledger wants each on its own axis.
            s.weightBytes =
                (desc.dramWeightBytes - desc.dramScaleBytes -
                 desc.dramResidencyReloadBytes) *
                desc.coalescingFactor;
            s.scaleBytes = desc.dramScaleBytes * desc.coalescingFactor;
            s.residencyReloadBytes =
                desc.dramResidencyReloadBytes * desc.coalescingFactor;
            s.crmMetaBytes =
                desc.dramCrmMetaBytes * desc.coalescingFactor;
            s.spillBytes = desc.dramSpillBytes * desc.coalescingFactor;
            s.timeUs = t.timeUs;
            s.bottleneck = toString(t.boundBy);
            ledger_->record(s);
        }

        res.timeUs += t.timeUs;
        res.cycles += t.cycles;
        res.computeCycles += t.computeCycles;
        res.stalls += t.stalls;
        res.flops += t.flops;
        res.dramBytes += t.dramBytes;
        res.l2Bytes += t.l2Bytes;
        res.sharedBytes += t.sharedBytes;
        res.weightDramBytes += desc.dramWeightBytes;
        res.quantWeightElems += desc.quantWeightElems;
        res.crmCycles += t.crmCycles;
        crm_energy += t.crmEnergyJ;

        dram_util_weighted += t.dramUtilization * t.timeUs;
        shared_util_weighted += t.sharedUtilization * t.timeUs;

        const auto c = static_cast<std::size_t>(desc.klass);
        class_time[c] += t.timeUs;
        ++class_count[c];
        ++res.kernelCount;
    }
    for (std::size_t c = 0; c < kClasses; ++c) {
        if (class_count[c] > 0) {
            const auto k = static_cast<KernelClass>(c);
            res.timePerClassUs[k] = class_time[c];
            res.kernelsPerClass[k] = class_count[c];
        }
    }

    if (res.timeUs > 0.0) {
        res.dramUtilization = dram_util_weighted / res.timeUs;
        res.sharedUtilization = shared_util_weighted / res.timeUs;
    }
    res.kernelsThroughCrm = gmu_.kernelsThroughCrm() - crm_before;

    ActivitySummary activity;
    activity.timeSeconds = res.timeUs * 1e-6;
    activity.flops = res.flops;
    activity.dramBytes = res.dramBytes;
    activity.l2Bytes = res.l2Bytes;
    activity.sharedBytes = res.sharedBytes;
    activity.issueBusyFraction =
        res.cycles > 0.0 ? res.computeCycles / res.cycles : 0.0;
    activity.quantWeightElems = res.quantWeightElems;
    activity.crmDynamicJ = crm_energy;
    activity.crmPresent = gmu_.crmPresent();
    res.energy = computeEnergy(cfg_, activity);

    if (obs_ && res.l2Bytes > 0.0) {
        // Effective L2 hit rate implied by the analytic traffic model:
        // the fraction of L2-level accesses that did not go off-chip.
        obs_->metrics()
            .gauge("cache.l2_hit_rate")
            .set(std::clamp(1.0 - res.dramBytes / res.l2Bytes, 0.0,
                            1.0));
    }

    return res;
}

} // namespace gpu
} // namespace mflstm
