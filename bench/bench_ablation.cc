/**
 * @file
 * Ablation study over the design choices DESIGN.md calls out (run on
 * the IMDB configuration at the AO threshold set):
 *
 *  1. DRS skipped-row semantics: DropRecurrent (Algorithm 3 kernel
 *     signatures) vs ZeroState (Section V-A prose) — accuracy impact;
 *  2. accuracy recovery: predicted context link (Eq. 6) vs zero vector;
 *  3. tissue alignment on/off — timing impact of fat/thin tissues;
 *  4. CRM hardware on/off at the same skip decisions (the Fig. 16
 *     software gap, isolated).
 */

#include <cstdio>

#include "core/tissue.hh"
#include "harness.hh"

int
main()
{
    using namespace mflstm;
    using namespace mflstm::bench;

    const AppContext app = makeApp(workloads::benchmarkByName("IMDB"));
    auto mf = makeCalibrated(app);
    const auto ladder = mf->calibration().ladder();
    const std::size_t mts = mf->calibration().mts;

    std::printf("Ablation study (IMDB, AO threshold set, baseline "
                "accuracy %.1f%%)\n",
                100.0 * app.baselineAccuracy);
    rule('=');

    BenchReport rep("ablation");
    rep.config("app", "IMDB");

    // ---- 1. DRS state policy ------------------------------------------
    const SchemeCurve hw = evaluateScheme(
        *mf, app, runtime::PlanKind::IntraCellHw, ladder);
    const std::size_t ao =
        core::selectAo(hw.points, app.baselineAccuracy, 2.0);

    mf->runner().resetStats();
    mf->runner().setThresholds(0.0, ladder[ao].alphaIntra);
    mf->runner().setDrsPolicy(nn::DrsStatePolicy::DropRecurrent);
    const double acc_drop = evalAccuracy(*mf, app);
    const double skip = mf->runner().stats()[0].skipFraction(
        app.model->config().hiddenSize);

    mf->runner().resetStats();
    mf->runner().setDrsPolicy(nn::DrsStatePolicy::ZeroState);
    const double acc_zero = evalAccuracy(*mf, app);
    mf->runner().setDrsPolicy(nn::DrsStatePolicy::DropRecurrent);

    std::printf("1. DRS skipped-row semantics (alpha_intra = %.3f, "
                "layer-0 skip %.0f%%)\n",
                ladder[ao].alphaIntra, 100.0 * skip);
    std::printf("   drop-recurrent (default): accuracy %.1f%% "
                "(loss %.1f%%)\n",
                100.0 * acc_drop,
                100.0 * (app.baselineAccuracy - acc_drop));
    std::printf("   zero-state (paper prose):  accuracy %.1f%% "
                "(loss %.1f%%)\n\n",
                100.0 * acc_zero,
                100.0 * (app.baselineAccuracy - acc_zero));

    // ---- 2. predicted link vs naive link --------------------------------
    // Evaluated on SNLI, whose links genuinely carry the premise: at an
    // aggressive division threshold the Eq. 6 prediction (trained link
    // distribution) is compared against a predictor that only ever saw
    // one padding sequence.
    const AppContext snli =
        makeApp(workloads::benchmarkByName("SNLI"));
    auto snli_mf = makeCalibrated(snli);
    const double alpha_aggr =
        snli_mf->calibration().profile.relevanceQuantile(0.5);

    snli_mf->runner().resetStats();
    snli_mf->runner().setThresholds(alpha_aggr, 0.0);
    const double acc_pred = evalAccuracy(*snli_mf, snli);

    core::ApproxRunner naive_runner(*snli.model);
    naive_runner.calibrate({{0, 0, 0, 0}});
    naive_runner.setThresholds(alpha_aggr, 0.0);
    const double acc_naive = core::approxClassificationAccuracy(
        naive_runner, snli.data.cls.test);

    std::printf("2. accuracy recovery at breakpoints (SNLI, aggressive "
                "alpha_inter = %.1f,\n   baseline %.1f%%)\n",
                alpha_aggr, 100.0 * snli.baselineAccuracy);
    std::printf("   Eq. 6 predicted link:      accuracy %.1f%%\n",
                100.0 * acc_pred);
    std::printf("   naive (padding-only) link: accuracy %.1f%%\n\n",
                100.0 * acc_naive);

    // ---- 3. tissue alignment on/off -------------------------------------
    // Sub-layers of uneven lengths make formation produce fat + thin
    // tissues; alignment rebalances them under the MTS.
    // Eight sub-layers: plain formation's first tissues hold 8 cells,
    // well past the MTS, while its tail starves.
    const std::vector<std::size_t> sub_layers = {20, 15, 10, 8,
                                                 8,  7,  6,  6};
    const auto formed = core::formTissues(sub_layers);
    const auto aligned = core::alignTissues(sub_layers, mts);

    auto time_plan = [&](const std::vector<std::size_t> &tissues) {
        // Clamp formation's fat tissues at the hardware limit the way a
        // naive implementation would (split overflow into extra
        // tissues).
        std::vector<std::size_t> sizes;
        for (std::size_t t : tissues) {
            while (t > mts) {
                sizes.push_back(mts);
                t -= mts;
            }
            sizes.push_back(t);
        }
        const runtime::ExecutionPlan plan = runtime::ExecutionPlan::preset(
            runtime::PlanKind::InterCell, 1, quant::QuantMode::Fp32,
            {sizes});
        return mf->executor()
            .runLayer({512, 512, 80}, plan, 0)
            .result.timeUs;
    };

    std::printf("3. tissue alignment (sub-layers 20/15/10/8/8/7/6/6, "
                "MTS %zu)\n", mts);
    std::printf("   formation only: %zu tissues, %.2f ms\n",
                formed.size(), time_plan(formed) / 1e3);
    std::printf("   with alignment: %zu tissues, %.2f ms\n\n",
                aligned.size(), time_plan(aligned) / 1e3);

    // ---- 4. CRM on/off ----------------------------------------------------
    mf->runner().resetStats();
    mf->runner().setThresholds(0.0, ladder[ao].alphaIntra);
    evalAccuracy(*mf, app);
    const auto hw_out = mf->evaluateTiming(runtime::PlanKind::IntraCellHw);
    const auto sw_out = mf->evaluateTiming(runtime::PlanKind::IntraCellSw);
    std::printf("4. CTA-reorganization hardware (same skip decisions)\n");
    std::printf("   software row-skip: %.2fx speedup\n", sw_out.speedup);
    std::printf("   with CRM:          %.2fx speedup (+%.1f%%)\n",
                hw_out.speedup,
                100.0 * (hw_out.speedup / sw_out.speedup - 1.0));
    rule();

    rep.metric("drs.drop_recurrent_loss_pct",
               100.0 * (app.baselineAccuracy - acc_drop));
    rep.metric("drs.zero_state_loss_pct",
               100.0 * (app.baselineAccuracy - acc_zero));
    rep.metric("link.predicted_accuracy_pct", 100.0 * acc_pred);
    rep.metric("link.naive_accuracy_pct", 100.0 * acc_naive);
    rep.metric("tissue.formation_ms", time_plan(formed) / 1e3);
    rep.metric("tissue.aligned_ms", time_plan(aligned) / 1e3);
    rep.metric("crm.software_speedup", sw_out.speedup);
    rep.metric("crm.hardware_speedup", hw_out.speedup);
    rep.write();
    return 0;
}
