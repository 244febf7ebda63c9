/**
 * @file
 * Model cross-validation: every timing result in this reproduction
 * comes from the analytic roofline model (gpu/sm.hh); this bench runs
 * the independent cycle-level SM simulation (gpu/cycle_sm.hh) on the
 * kernels that dominate each application — the baseline Sgemv(U,h) and
 * the MTS-sized tissue Sgemm — and reports the agreement.
 */

#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/tissue.hh"
#include "gpu/cycle_sm.hh"
#include "harness.hh"
#include "runtime/lowering.hh"

int
main()
{
    using namespace mflstm;
    using namespace mflstm::bench;

    const gpu::GpuConfig cfg = gpu::GpuConfig::tegraX1();
    runtime::NetworkExecutor ex(cfg);
    const runtime::Lowering &low = ex.lowering();

    std::printf("Cycle-level vs analytic model, per application's "
                "dominant kernels\n");
    rule('=');
    std::printf("%-6s | %-26s | %-26s\n", "App",
                " baseline Sgemv(U,h)", " tissue Sgemm(U,H_t)");
    std::printf("%-6s | %9s %9s %5s | %9s %9s %5s\n", "", "analytic",
                "cycle", "ratio", "analytic", "cycle", "ratio");
    rule();

    BenchReport rep("cycle_validation");
    rep.config("gpu", cfg.name);
    // A one-sweep layer streams U exactly once, so each lowered kernel
    // carries the full weight footprint: a one-cell baseline layer for
    // the Sgemv, a single MTS-sized tissue for the tissue Sgemm.
    const auto recurrent = [&](const runtime::LstmLayerShape &layer,
                               const runtime::ExecutionPlan &plan,
                               gpu::KernelClass klass) {
        for (const gpu::KernelDesc &k :
             low.lower(runtime::NetworkShape{{layer}}, plan))
            if (k.weightStream == gpu::WeightStream::U && k.klass == klass)
                return k;
        throw std::logic_error(std::string("no recurrent ") +
                               gpu::toString(klass) + " lowered");
    };
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        const runtime::LstmLayerShape layer{
            spec.hiddenSize, spec.hiddenSize, spec.length};

        const gpu::KernelDesc sgemv = recurrent(
            {spec.hiddenSize, spec.hiddenSize, 1}, runtime::ExecutionPlan{},
            gpu::KernelClass::Sgemv);
        const gpu::KernelTiming a1 = timeKernel(cfg, sgemv);
        const gpu::CycleSimResult c1 = cycleSimulate(cfg, sgemv);

        const std::size_t mts =
            core::findMts(ex, layer, 8).mts;
        const gpu::KernelDesc tissue = recurrent(
            {spec.hiddenSize, spec.hiddenSize, mts},
            runtime::ExecutionPlan::preset(runtime::PlanKind::InterCell, 1,
                                           quant::QuantMode::Fp32,
                                           {{mts}}),
            gpu::KernelClass::Sgemm);
        const gpu::KernelTiming a2 = timeKernel(cfg, tissue);
        const gpu::CycleSimResult c2 = cycleSimulate(cfg, tissue);

        std::printf("%-6s | %7.0fus %7.0fus %5.2f | %7.0fus %7.0fus "
                    "%5.2f\n",
                    spec.name.c_str(), a1.cycles / cfg.cyclesPerUs(),
                    c1.cycles / cfg.cyclesPerUs(),
                    c1.cycles / a1.cycles,
                    a2.cycles / cfg.cyclesPerUs(),
                    c2.cycles / cfg.cyclesPerUs(),
                    c2.cycles / a2.cycles);
        rep.metric(spec.name + ".sgemv_cycle_ratio",
                   c1.cycles / a1.cycles);
        rep.metric(spec.name + ".tissue_cycle_ratio",
                   c2.cycles / a2.cycles);
    }
    rule();
    rep.write();
    std::printf("Both models must agree on the bottleneck; ratios near "
                "1.0 validate the\nroofline timing used throughout the "
                "evaluation. The cycle model's stall\nattribution is "
                "checked in tests/gpu_cycle_sm_test.cc.\n");
    return 0;
}
