/**
 * @file
 * A simulated Intelligent Personal Assistant: the question-answering
 * scenario the paper's introduction motivates. A BABI-like QA model
 * answers user queries under a response-latency budget; the
 * user-oriented (UO) controller adapts the two thresholds to each
 * user's stated accuracy preference and reports the per-user operating
 * point, latency and answer accuracy.
 *
 * Build & run:  ./build/examples/ipa_assistant
 */

#include <cstdio>

#include "core/api.hh"
#include "study/study.hh"
#include "workloads/datagen.hh"

int
main()
{
    using namespace mflstm;

    const workloads::BenchmarkSpec &spec =
        workloads::benchmarkByName("BABI");
    const workloads::TaskData data = workloads::makeTask(spec, 300, 80);
    const nn::LstmModel model =
        workloads::trainAccuracyModel(spec, data, 12);
    const double base_acc = workloads::exactAccuracy(model, data);

    core::MemoryFriendlyLstm mf(
        model, {gpu::GpuConfig::tegraX1(), spec.timingShape()});
    const auto &cal = mf.calibrate(data.calibrationSequences(30));
    const double base_ms = mf.baseline().result.timeUs / 1e3;

    std::printf("IPA question answering on a simulated Tegra X1\n");
    std::printf("baseline answer latency %.2f ms, accuracy %.1f%%\n\n",
                base_ms, 100.0 * base_acc);

    // Evaluate the tuning space once.
    std::vector<core::OperatingPoint> points;
    const auto ladder = cal.ladder();
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        mf.setThresholds(ladder[i]);
        core::OperatingPoint pt;
        pt.index = i;
        pt.set = ladder[i];
        pt.accuracy = core::approxClassificationAccuracy(
            mf.runner(), data.cls.test);
        pt.speedup =
            mf.evaluateTiming({runtime::PlanKind::Combined}).speedup;
        points.push_back(pt);
    }

    // Three users with different accuracy preferences walk up to the
    // assistant; the UO controller picks each one's operating point.
    struct Persona
    {
        const char *name;
        double minAccuracy;  // stated preference
    };
    const Persona personas[] = {
        {"precision-first Paula", base_acc - 0.005},
        {"balanced Bob", base_acc - 0.03},
        {"speed-hungry Sam", base_acc - 0.10},
    };

    std::printf("%-24s %6s %10s %10s %10s\n", "user", "set", "latency",
                "speedup", "accuracy");
    for (const Persona &p : personas) {
        const std::size_t idx =
            core::selectForPreference(points, p.minAccuracy);
        std::printf("%-24s %6zu %8.2fms %9.2fx %9.1f%%\n", p.name, idx,
                    base_ms / points[idx].speedup, points[idx].speedup,
                    100.0 * points[idx].accuracy);
    }

    // And the population-level view the paper's user study takes.
    const std::size_t ao = core::selectAo(points, base_acc, 2.0);
    const std::size_t bpa = core::selectBpa(points);
    const study::StudyResult res =
        study::runUserStudy(points, base_acc, ao, bpa);
    std::printf("\n30-user replay study (mean satisfaction, 1-5): "
                "Baseline %.2f | AO %.2f | BPA %.2f | UO %.2f\n",
                res.score(study::Scheme::Baseline),
                res.score(study::Scheme::Ao),
                res.score(study::Scheme::Bpa),
                res.score(study::Scheme::Uo));
    return 0;
}
