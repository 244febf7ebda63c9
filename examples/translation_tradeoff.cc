/**
 * @file
 * Machine-translation trade-off explorer: the hardest Table II workload
 * for these approximations (every source token must be carried to the
 * target half). Sweeps the threshold ladder for all three schemes and
 * prints the full trade-off table, then shows what each scheme can
 * deliver under a 2% accuracy budget.
 *
 * Build & run:  ./build/examples/translation_tradeoff
 */

#include <cstdio>

#include "core/api.hh"
#include "workloads/datagen.hh"

int
main()
{
    using namespace mflstm;

    const workloads::BenchmarkSpec &spec =
        workloads::benchmarkByName("MT");
    const workloads::TaskData data = workloads::makeTask(spec, 300, 80);
    const nn::LstmModel model =
        workloads::trainAccuracyModel(spec, data, 12);
    const double base_acc = workloads::exactAccuracy(model, data);

    core::MemoryFriendlyLstm mf(
        model, {gpu::GpuConfig::tegraX1(), spec.timingShape()});
    const auto &cal = mf.calibrate(data.calibrationSequences(30));
    const auto ladder = cal.ladder();

    std::printf("English->French-like translation (4-layer LSTM, "
                "hidden %zu)\n",
                spec.hiddenSize);
    std::printf("baseline: %.2f ms / sentence, next-token accuracy "
                "%.1f%%\n\n",
                mf.baseline().result.timeUs / 1e3, 100.0 * base_acc);

    const runtime::PlanKind kinds[] = {runtime::PlanKind::InterCell,
                                       runtime::PlanKind::IntraCellHw,
                                       runtime::PlanKind::Combined};

    for (runtime::PlanKind kind : kinds) {
        std::printf("%-14s", runtime::toString(kind));
        std::vector<core::OperatingPoint> points;
        for (std::size_t i = 0; i < ladder.size(); ++i) {
            mf.setThresholds(
                {runtime::presetUsesTissues(kind) ? ladder[i].alphaInter
                                                  : 0.0,
                 runtime::presetUsesSkip(kind) ? ladder[i].alphaIntra
                                               : 0.0});
            core::OperatingPoint pt;
            pt.index = i;
            pt.accuracy = core::approxLmNextTokenAccuracy(
                mf.runner(), data.lm.test);
            pt.speedup = mf.evaluateTiming(kind).speedup;
            points.push_back(pt);
            if (i % 2 == 0)
                std::printf("  %4.2fx/%4.1f%%", pt.speedup,
                            100.0 * pt.accuracy);
        }
        const std::size_t ao = core::selectAo(points, base_acc, 2.0);
        std::printf("  | AO: set %zu -> %.2fx\n", ao,
                    points[ao].speedup);
    }

    std::printf("\nTranslation carries every source token across the "
                "separator, so aggressive\nthresholds quickly cost "
                "accuracy — the scheme picks conservative sets here,\n"
                "while bandwidth-bound workloads like PTB tolerate much "
                "more (see\nbench_fig19_tradeoffs).\n");
    return 0;
}
