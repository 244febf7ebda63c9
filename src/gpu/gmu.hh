/**
 * @file
 * Grid management unit (GMU). On the real part the GMU owns the pending
 * kernel pool and the hardware work queues; the paper extends it with
 * the CTA-reorganization module (Fig. 12). Here the GMU inspects each
 * launched kernel: kernels that carry the trivial-row list R (an extra
 * argument, detected at kernel initialisation per Section V-B) are routed
 * through the CRM before entering the hardware work queue.
 */

#ifndef MFLSTM_GPU_GMU_HH
#define MFLSTM_GPU_GMU_HH

#include "gpu/config.hh"
#include "gpu/crm.hh"
#include "gpu/kernel.hh"

namespace mflstm {
namespace gpu {

/** What the GMU decided for one kernel launch. */
struct DispatchInfo
{
    bool routedThroughCrm = false;
    unsigned activeThreads = 0;   ///< threads entering the work queue
    double crmCycles = 0.0;       ///< CRM pipeline latency charged
    double crmEnergyJ = 0.0;
};

/** Front end of the simulated GPU: kernel intake + CRM routing. */
class GridManagementUnit
{
  public:
    /**
     * @param crm_present  the GPU was built with the paper's hardware
     *                     extension; without it, row-skip kernels run as
     *                     plain (divergent) software kernels.
     */
    GridManagementUnit(const GpuConfig &cfg, bool crm_present)
        : cfg_(cfg), crm_(cfg), crmPresent_(crm_present)
    {}

    bool crmPresent() const { return crmPresent_; }

    /**
     * Attach a metrics registry to the GMU and its CRM: dispatch and
     * routing counters plus the CRM's compaction instruments.
     */
    void setMetrics(obs::MetricsRegistry *metrics)
    {
        metrics_ = metrics;
        crm_.setMetrics(metrics);
    }

    /**
     * Inspect a kernel that is launched @p launches times. Row-skip
     * kernels (extra argument R) are handed to the CRM which compacts
     * their grids; everything else passes straight to the work queue.
     * Every launch of one descriptor is routed alike, so the decision is
     * made once; the counters count every launch.
     */
    DispatchInfo dispatch(const KernelDesc &desc, std::size_t launches = 1);

    /** Total kernel launches seen / routed, for the overhead analysis. */
    std::size_t kernelsDispatched() const { return dispatched_; }
    std::size_t kernelsThroughCrm() const { return throughCrm_; }

  private:
    const GpuConfig &cfg_;
    CtaReorgModule crm_;
    bool crmPresent_;
    obs::MetricsRegistry *metrics_ = nullptr;
    std::size_t dispatched_ = 0;
    std::size_t throughCrm_ = 0;
};

} // namespace gpu
} // namespace mflstm

#endif // MFLSTM_GPU_GMU_HH
