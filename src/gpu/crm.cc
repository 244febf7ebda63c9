#include "gpu/crm.hh"

#include <cassert>
#include <cmath>

namespace mflstm {
namespace gpu {

CrmResult
CtaReorgModule::reorganizeSummary(std::uint32_t disabled_threads,
                                  std::uint32_t total_threads,
                                  std::size_t passes) const
{
    assert(disabled_threads <= total_threads);
    CrmResult res;
    res.disabledThreads = disabled_threads;
    res.activeThreads = total_threads - disabled_threads;
    res.cycles = pipelineCycles(total_threads);
    res.energyJ = static_cast<double>(total_threads) *
                  cfg_.crmPjPerThread * 1e-12;
    recordPass(res, total_threads, passes);
    return res;
}

void
CtaReorgModule::recordPass(const CrmResult &res, std::uint32_t total,
                           std::size_t passes) const
{
    if (!metrics_)
        return;
    // Cycles and thread counts are whole numbers, so n passes summed at
    // once add exactly what n single passes would.
    const double n = static_cast<double>(passes);
    metrics_->counter("crm.passes").add(n);
    metrics_->counter("crm.cycles").add(res.cycles * n);
    obs::Counter &in = metrics_->counter("crm.threads_in");
    obs::Counter &dis = metrics_->counter("crm.threads_disabled");
    in.add(static_cast<double>(total) * n);
    dis.add(static_cast<double>(res.disabledThreads) * n);
    metrics_->gauge("crm.compaction_ratio")
        .set(in.value() > 0.0 ? (in.value() - dis.value()) / in.value()
                              : 1.0);
    obs::Histogram &cycles = metrics_->histogram(
        "crm.pipeline_cycles",
        obs::Histogram::exponentialEdges(1.0, 1e6, 13));
    for (std::size_t i = 0; i < passes; ++i)
        cycles.observe(res.cycles);
}

double
CtaReorgModule::pipelineCycles(std::uint32_t total_threads) const
{
    const double units =
        std::ceil(static_cast<double>(total_threads) /
                  static_cast<double>(cfg_.crmThreadsPerCycle));
    return static_cast<double>(cfg_.crmPipelineCycles) + units;
}

} // namespace gpu
} // namespace mflstm
