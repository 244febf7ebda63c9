/**
 * @file
 * CTA-reorganization module (CRM) — the light-weight hardware unit the
 * paper adds to the GPU's grid management unit (Section V-B, Fig. 12).
 *
 * Functional contract: given the trivial-row list R produced by the DRS
 * kernel and the grid configuration, the CRM (1) loads R into the
 * trivial-rows buffer, (2) decodes the disabled software thread IDs
 * (DTIDs), (3) runs a warp-granular prefix sum over the enable mask to
 * compute each surviving thread's offset, and (4) shifts STIDs into
 * compacted hardware thread IDs (HTIDs) so whole warps are either fully
 * populated or absent — eliminating the branch divergence a software
 * row-skip pays.
 *
 * The timing model charges the two-stage pipeline of Fig. 12: after a
 * fixed fill latency the module retires one warp (32 threads) per cycle.
 */

#ifndef MFLSTM_GPU_CRM_HH
#define MFLSTM_GPU_CRM_HH

#include <cstdint>
#include <vector>

#include "gpu/config.hh"
#include "obs/metrics.hh"

namespace mflstm {
namespace gpu {

/** Result of one CRM pass over a kernel's grid. */
struct CrmResult
{
    /// HTID for every STID; kDisabled for threads that were filtered.
    std::vector<std::uint32_t> htidOf;
    std::uint32_t activeThreads = 0;
    std::uint32_t disabledThreads = 0;
    /// Cycles the CRM pipeline occupies (overlappable with the previous
    /// kernel's tail; charged to the kernel as fixed latency).
    double cycles = 0.0;
    /// Dynamic energy of the pass, joules.
    double energyJ = 0.0;

    static constexpr std::uint32_t kDisabled = 0xffffffffu;
};

/** The CRM datapath model. */
class CtaReorgModule
{
  public:
    explicit CtaReorgModule(const GpuConfig &cfg) : cfg_(cfg) {}

    /**
     * Attach a metrics registry; every subsequent pass records pass
     * counts, thread totals and the cumulative compaction ratio
     * (surviving / inspected thread slots). nullptr detaches.
     */
    void setMetrics(obs::MetricsRegistry *metrics) { metrics_ = metrics; }

    /**
     * Decode disabled STIDs from the trivial-row list. Thread t of the
     * row-major Sgemv grid processes row t / threads_per_row, so every
     * thread of a trivial row is disabled.
     */
    std::vector<bool>
    decodeDisabled(const std::vector<std::uint32_t> &trivial_rows,
                   std::uint32_t threads_per_row,
                   std::uint32_t total_threads) const;

    /**
     * Full CRM pass: DTID decode + prefix-sum compaction + STID shift.
     * The prefix sum is computed exactly as the hardware would: a
     * running count of disabled slots, applied per 32-thread unit.
     */
    CrmResult reorganize(const std::vector<std::uint32_t> &trivial_rows,
                         std::uint32_t threads_per_row,
                         std::uint32_t total_threads) const;

    /**
     * Timing-only variant used by the kernel-level simulator when the
     * exact row list is already summarised as a disabled-thread count.
     * The result is that of one pass; the metrics record @p passes
     * identical passes (one per launch of the kernel).
     */
    CrmResult reorganizeSummary(std::uint32_t disabled_threads,
                                std::uint32_t total_threads,
                                std::size_t passes = 1) const;

    /** Cycles to process a grid of the given size (Fig. 12 pipeline). */
    double pipelineCycles(std::uint32_t total_threads) const;

  private:
    void recordPass(const CrmResult &res, std::uint32_t total,
                    std::size_t passes = 1) const;

    const GpuConfig &cfg_;
    obs::MetricsRegistry *metrics_ = nullptr;
};

} // namespace gpu
} // namespace mflstm

#endif // MFLSTM_GPU_CRM_HH
