/**
 * @file
 * Fig. 15 reproduction: per-layer speedup and energy saving of the
 * inter-cell optimisation, for the multi-layer applications. The paper
 * observes that layers whose context links are more distinct divide
 * into more sub-layers and benefit more.
 */

#include <cstdio>

#include "harness.hh"

int
main()
{
    using namespace mflstm;
    using namespace mflstm::bench;

    std::printf("Fig. 15: per-layer speedup / energy saving of the "
                "inter-cell optimisation\n(AO threshold set)\n");
    rule('=');
    std::printf("%-6s %-7s %9s %9s %11s %12s\n", "App", "layer",
                "speedup", "energy", "break-rate", "sub-layers");
    rule();

    BenchReport rep("fig15_per_layer");
    for (const AppContext &app : makeAllApps()) {
        if (app.spec.numLayers < 2)
            continue;  // the figure only shows multi-layer apps

        auto mf = makeCalibrated(app);
        const auto ladder = mf->calibration().ladder();
        const SchemeCurve curve = evaluateScheme(
            *mf, app, runtime::PlanKind::InterCell, ladder);
        const std::size_t ao =
            core::selectAo(curve.points, app.baselineAccuracy, 2.0);

        // Re-derive the AO statistics, then time each layer separately.
        mf->runner().resetStats();
        mf->runner().setThresholds(ladder[ao].alphaInter, 0.0);
        evalAccuracy(*mf, app);

        const core::TimingOutcome outcome =
            mf->evaluateTiming({runtime::PlanKind::InterCell});

        runtime::ExecutionPlan base;
        for (std::size_t l = 0; l < app.spec.numLayers; ++l) {
            const runtime::LstmLayerShape &layer =
                mf->config().timingShape.layers[l];
            const runtime::RunReport rb =
                mf->executor().runLayer(layer, base, l);
            const runtime::RunReport ro =
                mf->executor().runLayer(layer, outcome.plan, l);

            const auto &st = mf->runner().stats()[l];
            std::printf("%-6s layer%zu %8.2fx %8.1f%% %10.3f %11.1f\n",
                        l == 0 ? app.spec.name.c_str() : "", l + 1,
                        runtime::speedup(rb, ro),
                        runtime::energySavingPct(rb, ro),
                        st.breakRate(), st.avgSubLayers());
            const std::string stem = app.spec.name + ".layer" +
                                     std::to_string(l + 1);
            rep.metric(stem + ".speedup", runtime::speedup(rb, ro));
            rep.metric(stem + ".energy_saving_pct",
                       runtime::energySavingPct(rb, ro));
        }
        rule();
    }
    rep.write();
    std::printf("Paper shape: layers with more distinct context links "
                "divide into more\nsub-layers and gain more; which "
                "layers those are depends on where the trained\nmodel "
                "saturates its gates.\n");
    return 0;
}
