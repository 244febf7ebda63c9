#include "gpu/crm.hh"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mflstm {
namespace gpu {

std::vector<bool>
CtaReorgModule::decodeDisabled(
    const std::vector<std::uint32_t> &trivial_rows,
    std::uint32_t threads_per_row, std::uint32_t total_threads) const
{
    if (threads_per_row == 0)
        throw std::invalid_argument("CRM: threads_per_row must be > 0");

    std::vector<bool> disabled(total_threads, false);
    for (std::uint32_t row : trivial_rows) {
        const std::uint64_t begin =
            static_cast<std::uint64_t>(row) * threads_per_row;
        for (std::uint64_t t = begin;
             t < begin + threads_per_row && t < total_threads; ++t) {
            disabled[static_cast<std::size_t>(t)] = true;
        }
    }
    return disabled;
}

CrmResult
CtaReorgModule::reorganize(const std::vector<std::uint32_t> &trivial_rows,
                           std::uint32_t threads_per_row,
                           std::uint32_t total_threads) const
{
    const std::vector<bool> disabled =
        decodeDisabled(trivial_rows, threads_per_row, total_threads);

    CrmResult res;
    res.htidOf.assign(total_threads, CrmResult::kDisabled);

    // Prefix sum over the disable mask: HTID = STID - disabledBefore.
    // The hardware evaluates this per 32-thread unit; the running-count
    // formulation below is bit-identical to chaining those units.
    std::uint32_t disabled_before = 0;
    for (std::uint32_t stid = 0; stid < total_threads; ++stid) {
        if (disabled[stid]) {
            ++disabled_before;
        } else {
            res.htidOf[stid] = stid - disabled_before;
        }
    }
    res.disabledThreads = disabled_before;
    res.activeThreads = total_threads - disabled_before;
    res.cycles = pipelineCycles(total_threads);
    res.energyJ = static_cast<double>(total_threads) *
                  cfg_.crmPjPerThread * 1e-12;
    recordPass(res, total_threads);
    return res;
}

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
