/**
 * @file
 * Simulator facade: executes a dependency-ordered kernel trace on the
 * configured mobile GPU (kernels are serialised, as they are on the TX1
 * where one LSTM stream saturates the part) and aggregates time, stall,
 * bandwidth and energy statistics. This is the stand-in for the paper's
 * Jetson board + DeepBench measurement loop.
 *
 * When an obs::Observer is injected the simulator additionally emits a
 * per-kernel timeline (one span per occupied SM, in simulated µs) and
 * registers counters/histograms (per-class stall cycles, DRS skip
 * counts, CRM compaction, effective L2 hit rate). With the default null
 * observer the timing results are bit-identical to the uninstrumented
 * simulator.
 */

#ifndef MFLSTM_GPU_SIMULATOR_HH
#define MFLSTM_GPU_SIMULATOR_HH

#include <map>

#include "gpu/config.hh"
#include "gpu/energy.hh"
#include "gpu/gmu.hh"
#include "gpu/kernel.hh"
#include "gpu/sm.hh"
#include "obs/ledger.hh"
#include "obs/observer.hh"

namespace mflstm {
namespace gpu {

/** Aggregated result of running one kernel trace. */
struct TraceResult
{
    double timeUs = 0.0;
    double cycles = 0.0;
    double computeCycles = 0.0;
    std::size_t kernelCount = 0;

    StallBreakdown stalls;

    double flops = 0.0;
    double dramBytes = 0.0;
    double l2Bytes = 0.0;
    double sharedBytes = 0.0;
    /// weight-matrix DRAM bytes (sum of KernelDesc::dramWeightBytes);
    /// divide by the batch size for the per-sequence amortised figure
    double weightDramBytes = 0.0;
    /// weight elements dequantized in-register (quantized plans only)
    double quantWeightElems = 0.0;

    /// time-weighted mean utilisations over the whole trace
    double dramUtilization = 0.0;
    double sharedUtilization = 0.0;

    /// wall time per kernel class, microseconds
    std::map<KernelClass, double> timePerClassUs;
    /// kernel count per class
    std::map<KernelClass, std::size_t> kernelsPerClass;

    double crmCycles = 0.0;
    std::size_t kernelsThroughCrm = 0;

    EnergyReport energy;

    /** Share of trace wall time spent in a kernel class, [0,1]. */
    double classShare(KernelClass k) const;
};

/** One simulated GPU instance. */
class Simulator
{
  public:
    /**
     * @param crm_present  build the GPU with the paper's CTA-
     *                     reorganization hardware (Section V-B).
     * @param obs          optional observability sink; nullptr (the
     *                     default) disables all recording.
     * @param ledger       optional traffic-attribution sink; every DRAM
     *                     byte a trace charges is recorded against the
     *                     (layer × matrix × kernel × cause) tree.
     */
    explicit Simulator(const GpuConfig &cfg, bool crm_present = true,
                       obs::Observer *obs = nullptr,
                       obs::TrafficLedger *ledger = nullptr);

    const GpuConfig &config() const { return cfg_; }
    bool crmPresent() const { return gmu_.crmPresent(); }
    obs::Observer *observer() const { return obs_; }
    obs::TrafficLedger *ledger() const { return ledger_; }
    /** The front end, for its launch counters. */
    const GridManagementUnit &gmu() const { return gmu_; }

    /**
     * Time one kernel, including GMU/CRM routing. The GMU counts
     * @p launches launches of it; the timing is that of one launch.
     */
    KernelTiming runKernel(const KernelDesc &desc,
                           std::size_t launches = 1);

    /**
     * Run a whole trace and aggregate: each stored kernel is timed once,
     * then every term is added per launch in trace order.
     */
    TraceResult runTrace(const KernelTrace &trace);

  private:
    void recordKernel(const KernelDesc &desc, const KernelLaunch &at,
                      const KernelTiming &t, bool routed_through_crm);

    GpuConfig cfg_;
    GridManagementUnit gmu_;
    obs::Observer *obs_ = nullptr;
    obs::TrafficLedger *ledger_ = nullptr;
};

} // namespace gpu
} // namespace mflstm

#endif // MFLSTM_GPU_SIMULATOR_HH
