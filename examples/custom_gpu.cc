/**
 * @file
 * Porting to a different mobile GPU: the offline calibration (Fig. 10)
 * is the only GPU-specific step. This example runs the same PTB model
 * on the Tegra X1 and on a TX2-like part, showing how the MTS and the
 * gains shift with the hardware, and how the gains scale with the
 * input set (the paper's scalability claim).
 *
 * Build & run:  ./build/examples/custom_gpu
 */

#include <cstdio>

#include "core/api.hh"
#include "workloads/datagen.hh"

namespace {

using namespace mflstm;

void
runOn(const gpu::GpuConfig &cfg, const workloads::BenchmarkSpec &spec,
      const workloads::TaskData &data, const nn::LstmModel &model,
      double base_acc)
{
    core::MemoryFriendlyLstm mf(model, {cfg, spec.timingShape()});
    const auto &cal = mf.calibrate(data.calibrationSequences(30));

    // AO point of the combined scheme.
    const auto ladder = cal.ladder();
    std::vector<core::OperatingPoint> points;
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        mf.setThresholds(ladder[i]);
        core::OperatingPoint pt;
        pt.index = i;
        pt.accuracy = core::approxLmNextTokenAccuracy(mf.runner(),
                                                      data.lm.test);
        pt.speedup =
            mf.evaluateTiming({runtime::PlanKind::Combined}).speedup;
        points.push_back(pt);
    }
    const std::size_t ao = core::selectAo(points, base_acc, 2.0);

    std::printf("%-42s MTS=%zu  baseline %7.2f ms  AO %4.2fx\n",
                cfg.name.c_str(), cal.mts,
                mf.baseline().result.timeUs / 1e3, points[ao].speedup);
}

} // anonymous namespace

int
main()
{
    using namespace mflstm;

    workloads::BenchmarkSpec spec = workloads::benchmarkByName("PTB");
    const workloads::TaskData data = workloads::makeTask(spec, 300, 80);
    const nn::LstmModel model =
        workloads::trainAccuracyModel(spec, data, 20);
    const double base_acc = workloads::exactAccuracy(model, data);
    std::printf("PTB language model, accuracy-model baseline %.1f%%\n\n",
                100.0 * base_acc);

    std::printf("Same model, two GPUs:\n");
    runOn(gpu::GpuConfig::tegraX1(), spec, data, model, base_acc);
    runOn(gpu::GpuConfig::tegraX2Like(), spec, data, model, base_acc);

    std::printf("\nScalability with the input set (Tegra X1, combined "
                "scheme at a fixed\nconservative threshold set):\n");
    for (std::size_t length : {50u, 100u, 200u, 400u}) {
        workloads::BenchmarkSpec scaled = spec;
        scaled.length = length;
        core::MemoryFriendlyLstm mf(
            model, {gpu::GpuConfig::tegraX1(), scaled.timingShape()});
        const auto &cal = mf.calibrate(data.calibrationSequences(30));
        const auto ladder = cal.ladder();
        // A conservative rung: short layers cannot yet divide up to
        // the MTS there, which is exactly the scaling effect at issue.
        mf.setThresholds(ladder[3]);
        core::approxLmNextTokenAccuracy(mf.runner(), data.lm.test);
        const auto out = mf.evaluateTiming({runtime::PlanKind::Combined});
        std::printf("  length %4zu: baseline %8.2f ms -> %8.2f ms "
                    "(%.2fx, %6.1f ms saved)\n",
                    length, mf.baseline().result.timeUs / 1e3,
                    out.report.result.timeUs / 1e3, out.speedup,
                    (mf.baseline().result.timeUs -
                     out.report.result.timeUs) / 1e3);
    }
    std::printf("\nThe speedup factor is sustained as the input set "
                "grows — the absolute time\nand energy saved scale "
                "linearly with it, which is the paper's scalability\n"
                "claim (PTB, the longest/largest workload, benefits "
                "most in Fig. 14).\n");
    return 0;
}
