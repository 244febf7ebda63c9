#include "gpu/gmu.hh"

namespace mflstm {
namespace gpu {

DispatchInfo
GridManagementUnit::dispatch(const KernelDesc &desc, std::size_t launches)
{
    dispatched_ += launches;
    if (metrics_)
        metrics_->counter("gmu.kernels_dispatched")
            .add(static_cast<double>(launches));

    DispatchInfo info;
    info.activeThreads = desc.totalThreads();

    if (desc.hasRowSkipArg && crmPresent_) {
        throughCrm_ += launches;
        const CrmResult res = crm_.reorganizeSummary(
            desc.disabledThreads, desc.totalThreads(), launches);
        info.routedThroughCrm = true;
        info.activeThreads = res.activeThreads;
        info.crmCycles = res.cycles;
        info.crmEnergyJ = res.energyJ;
        if (metrics_)
            metrics_->counter("gmu.kernels_through_crm")
                .add(static_cast<double>(launches));
    }
    return info;
}

} // namespace gpu
} // namespace mflstm
