/**
 * @file
 * sweep-table2: the paper's reproduction path (Fig. 14/19) as a closed
 * loop with one client. A pass visits every rung of the 11-point
 * threshold ladder of all six Table II applications on the combined
 * scheme — setThresholds, accuracy evaluation over a test split,
 * evaluateTiming — 66 points. Passes repeat until the budget is spent.
 *
 * Pass 0 uses the canonical test splits, so the AO operating points and
 * the simulated speed-up and energy saving derived from it are the same
 * on every run. Later passes draw their test splits from --seed, so no
 * pass repeats another's statistics or plans: a cache of repeated
 * simulations has nothing to hit here.
 */

#include "sysbench/loadgen.hh"
#include "sysbench/stats.hh"
#include "sysbench/workloads.hh"

namespace mflstm {
namespace sysbench {

namespace {

/** Paper Section VI: 2.54x average speed-up at the AO points. */
constexpr double kPaperSpeedup = 2.54;

struct AppState
{
    App app;
    std::unique_ptr<core::MemoryFriendlyLstm> mf;
    std::vector<core::ThresholdSet> ladder;
    double baselineAccuracy = 0.0;
};

std::vector<AppState>
setUp(const Options &opts, Tracer &tracer, LayerTimes &lt)
{
    std::vector<AppState> apps;
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        AppState s;
        s.app = loadApp(opts.cacheDir, spec, tracer, lt);
        s.mf = makeCalibrated(s.app, "tx1", tracer, lt);
        s.ladder = s.mf->calibration().ladder();
        auto sc = tracer.scope("core.baseline_accuracy", Layer::Core);
        s.baselineAccuracy =
            workloads::exactAccuracy(*s.app.model, s.app.data);
        apps.push_back(std::move(s));
    }
    return apps;
}

struct Point
{
    double ms = 0.0;
    core::OperatingPoint op;
    core::TimingOutcome outcome;
};

/** One ladder point: the unit of work a sweep client waits for. */
Point
evaluatePoint(AppState &s, std::size_t rung,
              const workloads::TaskData &data, Tracer &tracer,
              LayerTimes &lt)
{
    Point p;
    const Clock::time_point t0 = Clock::now();
    {
        auto sp = tracer.scope("core.ladder_point", Layer::Core);
        s.mf->setThresholds(s.ladder[rung]);
        const Clock::time_point f0 = Clock::now();
        {
            auto se = tracer.scope("core.accuracy_eval", Layer::Core);
            se.setItems(static_cast<double>(kTestSamples));
            p.op.accuracy = evalAccuracy(s.mf->runner(), data);
        }
        lt.forwardUs += 1e3 * msSince(f0);
        lt.forwardSeqs += static_cast<double>(kTestSamples);
        auto st = tracer.scope("core.evaluate_timing", Layer::Core);
        p.outcome = s.mf->evaluateTiming({runtime::PlanKind::Combined});
    }
    p.ms = msSince(t0);
    p.op.index = rung;
    p.op.set = s.ladder[rung];
    p.op.speedup = p.outcome.speedup;
    return p;
}

} // anonymous namespace

void
runSweep(const Options &opts, Report &rep, Tracer &tracer)
{
    Tracer off(false);
    LayerTimes lt, untraced_lt;
    std::vector<double> setup_s;
    std::vector<AppState> apps;
    while (opts.moreSetUps(setup_s)) {
        const Clock::time_point t0 = Clock::now();
        tracer.setSetup(true);
        apps = setUp(opts, opts.trace ? tracer : off,
                     opts.trace ? lt : untraced_lt);
        tracer.setSetup(false);
        setup_s.push_back(msSince(t0) / 1e3);
    }

    // Per-point samples, indexed [app][rung], over every pass.
    std::vector<std::vector<std::vector<double>>> samples(apps.size());
    for (std::size_t a = 0; a < apps.size(); ++a)
        samples[a].resize(apps[a].ladder.size());
    std::vector<std::vector<Point>> pass0(apps.size());
    std::size_t points_per_pass = 0;
    for (const AppState &s : apps)
        points_per_pass += s.ladder.size();
    double pass_ms[2] = {0.0, 0.0};

    // Untraced: passes until the budget is spent (pass 0 always
    // completes). Traced: pass 0 untraced as the overhead reference,
    // then one traced pass whose points are also replayed per layer.
    const Clock::time_point start = Clock::now();
    const double budget_ms = opts.seconds * 1e3;
    std::size_t points = 0;
    for (std::size_t pass = 0;; ++pass) {
        if (opts.trace ? pass == 2 : pass > 0 && msSince(start) >= budget_ms)
            break;
        const bool traced = opts.trace && pass == 1;
        Tracer &tr = traced ? tracer : off;
        LayerTimes &times = traced ? lt : untraced_lt;
        bool stop = false;
        for (std::size_t a = 0; a < apps.size() && !stop; ++a) {
            AppState &s = apps[a];
            const workloads::TaskData data =
                pass == 0 ? s.app.data
                          : seededTestSplit(s.app.spec,
                                            deriveSeed(opts.seed,
                                                       s.app.spec.name + "/pass" +
                                                           std::to_string(pass)));
            for (std::size_t r = 0; r < s.ladder.size(); ++r) {
                if (!opts.trace && pass > 0 && msSince(start) >= budget_ms) {
                    stop = true;
                    break;
                }
                Point p = evaluatePoint(s, r, data, tr, times);
                samples[a][r].push_back(p.ms);
                if (pass < 2)
                    pass_ms[pass] += p.ms;
                ++points;
                if (traced)
                    rep.check(replayRun(s.mf->config().gpu,
                                        s.mf->config().timingShape,
                                        p.outcome.plan, 1, false, tr, lt),
                              "sweep replay: lower + simulate reproduce the "
                              "run");
                if (pass == 0)
                    pass0[a].push_back(std::move(p));
            }
        }
    }
    rep.operations(points);

    // Untimed: AO operating points from pass 0, and a repeated point per
    // app, which must simulate bit-identically.
    std::vector<double> speedups, savings;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        AppState &s = apps[a];
        std::vector<core::OperatingPoint> ops;
        for (const Point &p : pass0[a])
            ops.push_back(p.op);
        const std::size_t ao = core::selectAo(ops, s.baselineAccuracy, 2.0);
        const std::string name = s.app.spec.name;
        rep.check(ops[ao].accuracy + 1e-12 >= s.baselineAccuracy - 0.02,
                  name + " AO accuracy within 2 points of the baseline");
        speedups.push_back(pass0[a][ao].outcome.speedup);
        savings.push_back(pass0[a][ao].outcome.energySavingPct);
        std::fprintf(stderr, "  %-5s AO rung %2zu: speedup %.4fx, energy "
                     "saving %.2f%%, accuracy %.4f (baseline %.4f)\n",
                     name.c_str(), ao, speedups.back(), savings.back(),
                     ops[ao].accuracy, s.baselineAccuracy);

        const std::size_t mid = s.ladder.size() / 2;
        const Point again = evaluatePoint(s, mid, s.app.data, off, untraced_lt);
        const gpu::TraceResult &x = again.outcome.report.result;
        const gpu::TraceResult &y = pass0[a][mid].outcome.report.result;
        rep.check(x.timeUs == y.timeUs && x.dramBytes == y.dramBytes,
                  name + " repeated ladder point simulates bit-identically");
    }
    const double speedup = geomean(speedups);
    std::fprintf(stderr, "  geomean AO speedup %.4fx (paper %.2fx, error "
                 "%+.1f%%), mean energy saving %.2f%%\n",
                 speedup, kPaperSpeedup,
                 100.0 * (speedup / kPaperSpeedup - 1.0), mean(savings));

    if (opts.trace) {
        reportLayerMetrics(rep, lt, tracer);
        std::vector<double> untraced;
        for (const std::vector<Point> &app_points : pass0)
            for (const Point &p : app_points)
                untraced.push_back(p.ms);
        rep.metric("client.latency_p50_ms", percentile(untraced, 0.5), "ms");
        rep.metric("client.latency_p90_ms", percentile(untraced, 0.9), "ms");
        rep.metric("trace.overhead_pct",
                   100.0 * (pass_ms[1] / pass_ms[0] - 1.0), "%");
        return;
    }

    // A pass's time from per-point medians: robust to a noisy sample and
    // independent of where the budget cut the last pass.
    std::vector<double> all;
    double pass_median_ms = 0.0;
    for (const auto &app_samples : samples) {
        for (const std::vector<double> &v : app_samples) {
            all.insert(all.end(), v.begin(), v.end());
            pass_median_ms += median(v);
        }
    }
    const Summary s = summarize(all);
    std::fprintf(stderr, "  ladder point: n=%zu p50 %.3f p90 %.3f ms; "
                 "highest supported p%g = %.3f ms\n",
                 s.n, s.p50, s.p90, 100.0 * s.topQuantile, s.topValue);
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("throughput_per_s",
               1e3 * static_cast<double>(points_per_pass) / pass_median_ms,
               "1/s");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.metric("sim_speedup", speedup, "x");
    rep.metric("sim_energy_saving_pct", mean(savings), "%");
}

} // namespace sysbench
} // namespace mflstm
