/**
 * @file
 * Fig. 14 reproduction (the headline result): speedup and system energy
 * saving of the inter-cell optimisation, the intra-cell optimisation
 * (DRS + CRM) and the combined system over the cuDNN-style baseline,
 * per application and on average, at the AO operating point (the
 * fastest threshold set within the user-imperceptible 2% accuracy-loss
 * budget).
 *
 * Extensions over the paper figure:
 *  - INT8 weight quantization (DESIGN.md §12), alone and composed with
 *    the combined scheme, rides along as two extra plans;
 *  - the full result set is also written to BENCH_overall.json in the
 *    working directory (per-app rows plus per-plan geomeans, in the
 *    shared BenchReport schema) so CI can archive and diff the
 *    numbers with tools/bench_diff;
 *  - positional arguments filter the Table II applications by name or
 *    abbreviation (e.g. `bench_fig14_overall MR` for a quick slice).
 */

#include <cstdio>
#include <cstring>
#include <map>

#include "harness.hh"

namespace {

using namespace mflstm;
using namespace mflstm::bench;

/** One plan's result on one application. */
struct PlanResult
{
    double speedup = 1.0;
    double energySavingPct = 0.0;
    double accuracyLossPct = 0.0;
};

/// plan key (stable metric path components) -> per-app results, app order
using ResultTable =
    std::map<std::string, std::vector<PlanResult>>;

void
writeReport(const std::vector<std::string> &apps,
            const ResultTable &table)
{
    // The filename stays BENCH_overall.json (CI archives that path).
    BenchReport rep("overall");
    std::string app_list;
    for (const std::string &a : apps)
        app_list += (app_list.empty() ? "" : ",") + a;
    rep.config("apps", app_list);
    rep.config("accuracy_budget_pct", "2");

    for (const auto &[plan, rows] : table) {
        std::vector<double> sp, en;
        for (std::size_t i = 0; i < apps.size(); ++i) {
            rep.metric(apps[i] + "." + plan + ".speedup",
                       rows[i].speedup);
            rep.metric(apps[i] + "." + plan + ".energy_saving_pct",
                       rows[i].energySavingPct);
            rep.metric(apps[i] + "." + plan + ".accuracy_loss_pct",
                       rows[i].accuracyLossPct);
            sp.push_back(rows[i].speedup);
            en.push_back(rows[i].energySavingPct);
        }
        rep.metric("geomean." + plan + ".speedup", geomean(sp));
        rep.metric("mean." + plan + ".energy_saving_pct", mean(en));
    }
    rep.write();
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Positional args select a subset of the Table II applications.
    std::vector<workloads::BenchmarkSpec> specs;
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        bool wanted = argc < 2;
        for (int i = 1; i < argc && !wanted; ++i)
            wanted = spec.name == argv[i] || spec.abbrev == argv[i];
        if (wanted)
            specs.push_back(spec);
    }
    if (specs.empty()) {
        std::fprintf(stderr,
                     "no matching application; valid names are:\n");
        for (const workloads::BenchmarkSpec &spec : workloads::tableII())
            std::fprintf(stderr, "  %s (%s)\n", spec.name.c_str(),
                         spec.abbrev.c_str());
        return 2;
    }

    std::printf("Fig. 14: speedup and energy saving at the AO threshold "
                "set (<=2%% accuracy loss)\n");
    rule('=');
    std::printf("%-6s | %-17s | %-17s | %-17s | %s\n", "App",
                " inter-cell", " intra-cell", " combined", "acc loss");
    std::printf("%-6s | %8s %8s | %8s %8s | %8s %8s |\n", "",
                "speedup", "energy", "speedup", "energy", "speedup",
                "energy");
    rule();

    std::vector<std::string> app_names;
    ResultTable table;
    double max_comb_speedup = 0.0, max_comb_energy = 0.0;

    for (const workloads::BenchmarkSpec &spec : specs) {
        const AppContext app = makeApp(spec);
        auto mf = makeCalibrated(app);
        const auto ladder = mf->calibration().ladder();

        auto at_ao = [&](runtime::PlanKind kind) {
            const SchemeCurve curve =
                evaluateScheme(*mf, app, kind, ladder);
            const std::size_t ao = core::selectAo(
                curve.points, app.baselineAccuracy, 2.0);
            return std::tuple(curve.outcomes[ao].speedup,
                              curve.outcomes[ao].energySavingPct,
                              curve.points[ao].accuracy, ao);
        };

        const auto [si, ei, ai, ao_i] =
            at_ao(runtime::PlanKind::InterCell);
        const auto [sd, ed, ad, ao_d] =
            at_ao(runtime::PlanKind::IntraCellHw);

        // Combined AO: the controller tunes the two thresholds to the
        // accuracy budget independently (Fig. 10 op 3) — start from each
        // level's own AO rung and back off whichever contributes the
        // larger loss until the pair fits the 2% budget. The quant mode
        // rides along as a fixed third coordinate.
        auto combined_at = [&, ai = ai, ad = ad, ao_i = ao_i,
                            ao_d = ao_d](quant::QuantMode qm) {
            std::size_t ci = ao_i, cd = ao_d;
            double sc = 1.0, ec = 0.0, ac = app.baselineAccuracy;
            for (;;) {
                mf->setThresholds({ladder[ci].alphaInter,
                                   ladder[cd].alphaIntra, qm});
                ac = evalAccuracy(*mf, app);
                const core::TimingOutcome out =
                    mf->evaluateTiming({runtime::PlanKind::Combined});
                sc = out.speedup;
                ec = out.energySavingPct;
                if (app.baselineAccuracy - ac <= 0.02 + 1e-9 ||
                    (ci == 0 && cd == 0)) {
                    break;
                }
                // Back off the level with the costlier standalone loss.
                const double loss_i = app.baselineAccuracy - ai;
                const double loss_d = app.baselineAccuracy - ad;
                if (ci > 0 && (cd == 0 || loss_i >= loss_d))
                    --ci;
                else
                    --cd;
            }
            return std::tuple(sc, ec, ac);
        };

        const auto [sc, ec, ac] = combined_at(quant::QuantMode::Fp32);

        // INT8 alone: the Baseline dataflow on quantized weights.
        mf->setThresholds({0.0, 0.0, quant::QuantMode::Int8});
        const double a8 = evalAccuracy(*mf, app);
        const core::TimingOutcome q8 =
            mf->evaluateTiming({runtime::PlanKind::Baseline});

        // INT8 composed with the combined scheme.
        const auto [sc8, ec8, ac8] =
            combined_at(quant::QuantMode::Int8);

        std::printf("%-6s | %7.2fx %7.1f%% | %7.2fx %7.1f%% | "
                    "%7.2fx %7.1f%% | %5.1f%%\n",
                    app.spec.name.c_str(), si, ei, sd, ed, sc, ec,
                    100.0 * (app.baselineAccuracy - ac));

        const auto loss = [&](double a) {
            return 100.0 * (app.baselineAccuracy - a);
        };
        app_names.push_back(app.spec.name);
        table["inter"].push_back({si, ei, loss(ai)});
        table["intra"].push_back({sd, ed, loss(ad)});
        table["combined"].push_back({sc, ec, loss(ac)});
        table["int8"].push_back(
            {q8.speedup, q8.energySavingPct, loss(a8)});
        table["combined_int8"].push_back({sc8, ec8, loss(ac8)});
        max_comb_speedup = std::max(max_comb_speedup, sc);
        max_comb_energy = std::max(max_comb_energy, ec);
    }
    rule();
    {
        std::vector<double> sp_inter, sp_intra, sp_comb;
        std::vector<double> en_inter, en_intra, en_comb;
        for (std::size_t i = 0; i < app_names.size(); ++i) {
            sp_inter.push_back(table["inter"][i].speedup);
            sp_intra.push_back(table["intra"][i].speedup);
            sp_comb.push_back(table["combined"][i].speedup);
            en_inter.push_back(table["inter"][i].energySavingPct);
            en_intra.push_back(table["intra"][i].energySavingPct);
            en_comb.push_back(table["combined"][i].energySavingPct);
        }
        std::printf("%-6s | %7.2fx %7.1f%% | %7.2fx %7.1f%% | "
                    "%7.2fx %7.1f%% |\n",
                    "mean", geomean(sp_inter), mean(en_inter),
                    geomean(sp_intra), mean(en_intra), geomean(sp_comb),
                    mean(en_comb));
    }
    std::printf("combined: up to %.2fx speedup, up to %.1f%% energy "
                "saving\n",
                max_comb_speedup, max_comb_energy);
    rule();
    std::printf("Paper: inter 2.05x / 35.9%%; intra 1.65x / 16.9%%; "
                "combined 2.54x (up to 3.24x) /\n47.2%% (up to 58.8%%) "
                "at 2%% loss. Expected shape: combined > each alone; "
                "PTB (longest\nlayer, largest weights) benefits most.\n");

    writeReport(app_names, table);
    return 0;
}
