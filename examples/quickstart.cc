/**
 * @file
 * Quickstart: the whole memory-friendly-LSTM flow in ~60 lines.
 *
 *  1. train a small LSTM classifier on a synthetic sentiment task;
 *  2. wrap it in MemoryFriendlyLstm with a full-size Table II timing
 *     shape and a Tegra X1 GPU model;
 *  3. calibrate (MTS sweep, threshold limits, link predictors);
 *  4. pick the AO operating point (fastest within 2% accuracy loss);
 *  5. report speedup, energy saving and accuracy.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "core/api.hh"
#include "workloads/datagen.hh"

int
main()
{
    using namespace mflstm;

    // 1. Synthetic IMDB-like task + a small trained accuracy model.
    const workloads::BenchmarkSpec &spec =
        workloads::benchmarkByName("IMDB");
    const workloads::TaskData data = workloads::makeTask(spec, 300, 80);
    const nn::LstmModel model =
        workloads::trainAccuracyModel(spec, data, 12);
    const double base_acc = workloads::exactAccuracy(model, data);
    std::printf("trained accuracy model: %.1f%% on the synthetic "
                "sentiment task\n",
                100.0 * base_acc);

    // 2. The public facade: accuracy model + full-size timing shape.
    core::MemoryFriendlyLstm mf(
        model, {gpu::GpuConfig::tegraX1(), spec.timingShape()});
    std::printf("baseline (Algorithm 1) inference: %.2f ms, %.1f mJ\n",
                mf.baseline().result.timeUs / 1e3,
                mf.baseline().result.energy.totalJ() * 1e3);

    // 3. Offline calibration (Fig. 10, ops 1-4).
    const auto &cal = mf.calibrate(data.calibrationSequences(30));
    std::printf("calibrated: MTS=%zu, alpha_inter<=%.1f, "
                "alpha_intra<=%.3f\n",
                cal.mts, cal.limits.maxInter, cal.limits.maxIntra);

    // 4. Sweep the threshold ladder and pick AO.
    std::vector<core::OperatingPoint> points;
    const auto ladder = cal.ladder();
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        mf.setThresholds(ladder[i]);
        core::OperatingPoint pt;
        pt.index = i;
        pt.accuracy = core::approxClassificationAccuracy(
            mf.runner(), data.cls.test);
        pt.speedup =
            mf.evaluateTiming({runtime::PlanKind::Combined}).speedup;
        points.push_back(pt);
    }
    const std::size_t ao = core::selectAo(points, base_acc, 2.0);

    // 5. Report the chosen operating point.
    mf.setThresholds(ladder[ao]);
    const double acc = core::approxClassificationAccuracy(
        mf.runner(), data.cls.test);
    const core::TimingOutcome out =
        mf.evaluateTiming({runtime::PlanKind::Combined});

    std::printf("\nAO operating point (threshold set %zu):\n", ao);
    std::printf("  speedup        %.2fx (%.2f ms -> %.2f ms)\n",
                out.speedup, mf.baseline().result.timeUs / 1e3,
                out.report.result.timeUs / 1e3);
    std::printf("  energy saving  %.1f%%\n", out.energySavingPct);
    std::printf("  accuracy       %.1f%% (loss %.1f%%)\n",
                100.0 * acc, 100.0 * (base_acc - acc));
    return 0;
}
