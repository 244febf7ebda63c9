#include "gpu/energy.hh"

namespace mflstm {
namespace gpu {

EnergyReport
computeEnergy(const GpuConfig &cfg, const ActivitySummary &a)
{
    EnergyReport e;
    e.staticJ = (cfg.socStaticW + cfg.gpuIdleW) * a.timeSeconds;
    // Persistent residency shows up here through the activity totals:
    // resident weights cross the bus (dramBytes) and dequantize
    // (quantWeightElems) once per sequence instead of once per wave,
    // while their on-chip re-reads land in sharedBytes.
    e.gpuDynamicJ =
        cfg.gpuIssueActiveW * a.issueBusyFraction * a.timeSeconds +
        cfg.fmaPjPerFlop * a.flops * 1e-12 +
        cfg.dequantPjPerWeight * a.quantWeightElems * 1e-12;
    e.dramJ = cfg.dramPjPerByte * a.dramBytes * 1e-12;
    e.onChipJ = cfg.l2PjPerByte * a.l2Bytes * 1e-12 +
                cfg.sharedPjPerByte * a.sharedBytes * 1e-12;
    e.crmJ = a.crmDynamicJ +
             (a.crmPresent ? cfg.crmStaticW * a.timeSeconds : 0.0);
    return e;
}

} // namespace gpu
} // namespace mflstm
