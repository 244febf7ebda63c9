/**
 * @file
 * System-level energy model. The paper reports energy of the whole board
 * (CPU + GPU + DRAM, Section VI-A), so the model combines: static SoC
 * power over the run, GPU idle power, issue-activity-proportional GPU
 * dynamic power, and per-byte/per-FLOP event energies for DRAM, L2,
 * shared memory, and the FP datapath. CRM overheads are accounted
 * separately so the Section VI-F overhead analysis can report them.
 */

#ifndef MFLSTM_GPU_ENERGY_HH
#define MFLSTM_GPU_ENERGY_HH

#include "gpu/config.hh"

namespace mflstm {
namespace gpu {

/** Energy of one run, decomposed by source (joules). */
struct EnergyReport
{
    double staticJ = 0.0;      ///< SoC + GPU idle over the runtime
    double gpuDynamicJ = 0.0;  ///< issue-activity + FP datapath
    double dramJ = 0.0;
    double onChipJ = 0.0;      ///< L2 + shared memory
    double crmJ = 0.0;         ///< CRM dynamic + static

    double totalJ() const
    {
        return staticJ + gpuDynamicJ + dramJ + onChipJ + crmJ;
    }
};

/** Aggregate activity counters for one run. */
struct ActivitySummary
{
    double timeSeconds = 0.0;
    double flops = 0.0;
    double dramBytes = 0.0;
    double l2Bytes = 0.0;
    double sharedBytes = 0.0;
    /// time-weighted fraction of cycles the issue stage was busy
    double issueBusyFraction = 0.0;
    /// weight elements dequantized in-register (quantized plans)
    double quantWeightElems = 0.0;
    double crmDynamicJ = 0.0;
    bool crmPresent = false;
};

/** Evaluate the energy model on one run's activity. */
EnergyReport computeEnergy(const GpuConfig &cfg,
                           const ActivitySummary &activity);

} // namespace gpu
} // namespace mflstm

#endif // MFLSTM_GPU_ENERGY_HH
