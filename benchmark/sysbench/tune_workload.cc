/**
 * @file
 * tune-zoo: the cached schedule search as a closed loop with one client
 * and no forward pass or serving in the timed part. Set-up builds 36
 * TuneRequests — 6 Table II apps x {fp32, int8} x {tx1, dp4a, epur} —
 * from one tx1 calibration per app and a statistics pass over its
 * calibration sequences at the mid-ladder rung. A cycle then runs
 * sched::tuneCached over all 36 twice, each time into a fresh cache
 * directory (search + saveTunedPlan), and once more against the first
 * directory (loadTunedPlan + fingerprint and re-simulation checks).
 * Cycles repeat until the budget is spent.
 *
 * The inputs do not depend on --seed: the search space is fixed by the
 * trained models, so every run does the same deterministic work.
 */

#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/persist.hh"
#include "hw/backend.hh"
#include "sched/persist.hh"
#include "sysbench/stats.hh"
#include "sysbench/workloads.hh"

namespace mflstm {
namespace sysbench {

namespace {

constexpr const char *kBackends[] = {"tx1", "dp4a", "epur"};
constexpr quant::QuantMode kQuants[] = {quant::QuantMode::Fp32,
                                        quant::QuantMode::Int8};

struct Job
{
    std::string name;  ///< "<app>_<backend>_<quant>", the artifact file
    const runtime::NetworkExecutor *exec = nullptr;
    sched::TuneRequest req;
    std::uint32_t weightsCrc = 0;
};

struct Zoo
{
    std::vector<App> apps;
    /// one executor per backend, index-aligned with kBackends
    std::vector<std::unique_ptr<runtime::NetworkExecutor>> execs;
    std::vector<Job> jobs;
};

Zoo
setUp(const Options &opts, Tracer &tracer, LayerTimes &lt)
{
    Zoo zoo;
    for (const char *b : kBackends)
        zoo.execs.push_back(std::make_unique<runtime::NetworkExecutor>(
            hw::registry().get(b).config));
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        zoo.apps.push_back(loadApp(opts.cacheDir, spec, tracer, lt));
        const App &app = zoo.apps.back();
        const auto mf = makeCalibrated(app, "tx1", tracer, lt);
        const auto ladder = mf->calibration().ladder();
        const core::ThresholdSet &mid = ladder[ladder.size() / 2];
        const auto seqs = app.data.calibrationSequences(kCalibrationSeqs);
        const std::uint32_t crc = core::modelWeightsCrc(*app.model);
        const bool lm = app.data.isLm;
        for (quant::QuantMode q : kQuants) {
            mf->setThresholds({mid.alphaInter, mid.alphaIntra, q});
            const Clock::time_point f0 = Clock::now();
            {
                auto s = tracer.scope("core.stats_pass", Layer::Core);
                s.setItems(static_cast<double>(seqs.size()));
                for (const std::vector<std::int32_t> &t : seqs) {
                    if (lm)
                        mf->runner().lmLogits(t);
                    else
                        mf->runner().classify(t);
                }
            }
            lt.forwardUs += 1e3 * msSince(f0);
            lt.forwardSeqs += static_cast<double>(seqs.size());
            for (std::size_t b = 0; b < std::size(kBackends); ++b) {
                Job job;
                job.name = spec.name + "_" + kBackends[b] + "_" +
                           quant::toString(q);
                job.exec = zoo.execs[b].get();
                job.req.shape = spec.timingShape();
                job.req.backendId = kBackends[b];
                job.req.stats = mf->runner().stats();
                job.req.mts = mf->calibration().mts;
                job.req.modelHidden = app.model->config().hiddenSize;
                job.req.quant = q;
                job.weightsCrc = crc;
                zoo.jobs.push_back(std::move(job));
            }
        }
    }
    return zoo;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is), {});
}

bool
samePlan(const sched::Candidate &a, const sched::Candidate &b)
{
    return a.label == b.label && a.timeUs == b.timeUs &&
           a.dramBytes == b.dramBytes &&
           a.plan.decisions == b.plan.decisions;
}

struct CycleResult
{
    std::vector<double> coldMs;
    std::vector<double> warmMs;
    std::vector<sched::TuneResult> first;  ///< pass A, index-aligned with jobs
    std::size_t hits = 0;
};

/**
 * Per-layer replay of one cold tune through its public pieces: the
 * search, every preset plan, the artifact save and load, and one run of
 * the chosen plan.
 */
void
replayTune(const Job &job, const sched::TuneResult &res,
           const std::string &dir, Report &rep, Tracer &tracer,
           LayerTimes &lt)
{
    sched::TuneResult searched;
    {
        auto s = tracer.scope("sched.tune", Layer::Sched);
        searched = sched::tune(*job.exec, job.req);
        s.setItems(static_cast<double>(searched.candidates.size()));
    }
    for (runtime::PlanKind kind :
         {runtime::PlanKind::Baseline, runtime::PlanKind::InterCell,
          runtime::PlanKind::IntraCellSw, runtime::PlanKind::IntraCellHw,
          runtime::PlanKind::Combined, runtime::PlanKind::ZeroPruning,
          runtime::PlanKind::Persistent}) {
        auto s = tracer.scope("sched.preset_plan", Layer::Sched);
        sched::presetPlan(*job.exec, job.req, kind);
    }
    const std::string path = dir + "/replay_" + job.name;
    {
        auto s = tracer.scope("io.tuned_plan_save", Layer::Io);
        sched::saveTunedPlan(
            sched::makeTunedPlanArtifact(job.req, job.weightsCrc,
                                         job.exec->config(), searched),
            path);
    }
    {
        auto s = tracer.scope("io.tuned_plan_load", Layer::Io);
        sched::loadTunedPlan(path, job.exec->config(), job.req,
                             job.weightsCrc);
    }
    rep.check(samePlan(searched.chosen, res.chosen),
              job.name + " replayed search chooses the cached plan");
    rep.check(replayRun(job.exec->config(), job.req.shape, res.chosen.plan,
                        job.req.batch, false, tracer, lt),
              job.name + " replay: lower + simulate reproduce the run");
}

CycleResult
runCycle(const Zoo &zoo, const std::string &root, std::size_t cycle,
         Report &rep, Tracer &tracer, LayerTimes &lt)
{
    const std::string dir[2] = {root + "/c" + std::to_string(cycle) + "a",
                                root + "/c" + std::to_string(cycle) + "b"};
    for (const std::string &d : dir) {
        std::filesystem::remove_all(d);
        std::filesystem::create_directories(d);
    }

    CycleResult out;
    for (std::size_t pass = 0; pass < 2; ++pass) {
        for (std::size_t j = 0; j < zoo.jobs.size(); ++j) {
            const Job &job = zoo.jobs[j];
            const std::string path = dir[pass] + "/" + job.name;
            sched::TuneResult res;
            const Clock::time_point t0 = Clock::now();
            {
                auto s = tracer.scope("sched.tune_cached", Layer::Sched);
                res = sched::tuneCached(*job.exec, job.req, job.weightsCrc,
                                        path);
            }
            out.coldMs.push_back(msSince(t0));
            rep.check(!res.fromCache && res.dominatesReference,
                      job.name + " cold tune searched and dominates the "
                                 "best preset");
            if (pass == 0) {
                if (tracer.enabled())
                    replayTune(job, res, dir[1], rep, tracer, lt);
                out.first.push_back(std::move(res));
                continue;
            }
            rep.check(samePlan(res.chosen, out.first[j].chosen) &&
                          readFile(path) ==
                              readFile(dir[0] + "/" + job.name),
                      job.name + " second cold tune is identical");
        }
    }
    for (std::size_t j = 0; j < zoo.jobs.size(); ++j) {
        const Job &job = zoo.jobs[j];
        sched::TuneResult res;
        const Clock::time_point t0 = Clock::now();
        {
            auto s = tracer.scope("io.tune_cached_warm", Layer::Io);
            res = sched::tuneCached(*job.exec, job.req, job.weightsCrc,
                                    dir[0] + "/" + job.name);
        }
        out.warmMs.push_back(msSince(t0));
        out.hits += res.fromCache ? 1 : 0;
        rep.check(res.fromCache && samePlan(res.chosen, out.first[j].chosen),
                  job.name + " warm tune hits the cache with the same plan");
    }
    rep.operations(3 * zoo.jobs.size());
    for (const std::string &d : dir)
        std::filesystem::remove_all(d);
    return out;
}

} // anonymous namespace

void
runTune(const Options &opts, Report &rep, Tracer &tracer)
{
    Tracer off(false);
    LayerTimes lt, untraced_lt;
    std::vector<double> setup_s;
    Zoo zoo;
    while (opts.moreSetUps(setup_s)) {
        const Clock::time_point t0 = Clock::now();
        tracer.setSetup(true);
        zoo = setUp(opts, opts.trace ? tracer : off,
                    opts.trace ? lt : untraced_lt);
        tracer.setSetup(false);
        setup_s.push_back(msSince(t0) / 1e3);
    }

    const std::string root = opts.outDir + "/tune-cache";
    std::vector<CycleResult> cycles;
    const Clock::time_point start = Clock::now();
    // Untraced: cycles until the budget is spent. Traced: one untraced
    // cycle as the overhead reference, then one traced cycle.
    for (std::size_t c = 0;; ++c) {
        if (opts.trace ? c == 2 : c > 0 && msSince(start) >= opts.seconds * 1e3)
            break;
        const bool traced = opts.trace && c == 1;
        cycles.push_back(runCycle(zoo, root, c, rep, traced ? tracer : off,
                                  traced ? lt : untraced_lt));
        // Only the first cycle's results are read afterwards; keeping the
        // rest would make the peak RSS depend on how many cycles ran.
        if (c > 0)
            std::vector<sched::TuneResult>().swap(cycles.back().first);
    }
    std::filesystem::remove_all(root);

    // Simulated outcome of the search, from the first cycle: the chosen
    // plan against the baseline preset, per job.
    std::vector<double> speedups, savings;
    double candidates = 0.0;
    for (std::size_t j = 0; j < zoo.jobs.size(); ++j) {
        const Job &job = zoo.jobs[j];
        const sched::TuneResult &res = cycles.front().first[j];
        candidates += static_cast<double>(res.candidates.size());
        const runtime::RunReport base = job.exec->run(
            runtime::RunRequest::network(
                job.req.shape,
                sched::presetPlan(*job.exec, job.req,
                                  runtime::PlanKind::Baseline),
                job.req.batch));
        const runtime::RunReport chosen = job.exec->run(
            runtime::RunRequest::network(job.req.shape, res.chosen.plan,
                                         job.req.batch));
        rep.check(chosen.result.timeUs == res.chosen.timeUs,
                  job.name + " chosen plan re-simulates to its score");
        speedups.push_back(runtime::speedup(base, chosen));
        savings.push_back(runtime::energySavingPct(base, chosen));
    }

    if (opts.trace) {
        reportLayerMetrics(rep, lt, tracer);
        rep.metric("client.latency_p50_ms", percentile(cycles[0].coldMs, 0.5),
                   "ms");
        rep.metric("client.latency_p90_ms", percentile(cycles[0].coldMs, 0.9),
                   "ms");
        const double untraced = median(cycles[0].coldMs);
        rep.metric("trace.overhead_pct",
                   100.0 * (median(cycles[1].coldMs) / untraced - 1.0), "%");
        rep.metric("sched.tunes", static_cast<double>(cycles[1].coldMs.size()),
                   "count");
        rep.metric("sched.candidates.mean",
                   candidates / static_cast<double>(zoo.jobs.size()), "count");
        rep.metric("io.cache_hit_frac",
                   static_cast<double>(cycles[1].hits) /
                       static_cast<double>(zoo.jobs.size()),
                   "frac");
        return;
    }

    std::vector<double> cold, warm;
    for (const CycleResult &c : cycles) {
        cold.insert(cold.end(), c.coldMs.begin(), c.coldMs.end());
        warm.insert(warm.end(), c.warmMs.begin(), c.warmMs.end());
    }
    const Summary sc = summarize(cold), sw = summarize(warm);
    // Calls per second over one pass of the 36 jobs, from each job's
    // median cold time: a slow fsync or a descheduled moment in one call
    // does not move it.
    const std::size_t jobs = zoo.jobs.size();
    double pass_ms = 0.0;
    for (std::size_t j = 0; j < jobs; ++j) {
        std::vector<double> v;
        for (const CycleResult &c : cycles)
            for (std::size_t pass = 0; pass < 2; ++pass)
                v.push_back(c.coldMs[pass * jobs + j]);
        pass_ms += median(v);
    }
    std::fprintf(stderr, "  cold tune: n=%zu p50 %.3f p90 %.3f ms; highest "
                 "supported p%g = %.3f ms\n  warm tune: n=%zu p50 %.3f p90 "
                 "%.3f ms\n", sc.n, sc.p50, sc.p90, 100.0 * sc.topQuantile,
                 sc.topValue, sw.n, sw.p50, sw.p90);
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("throughput_per_s", 1e3 * static_cast<double>(jobs) / pass_ms,
               "1/s");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    rep.metric("sim_speedup", geomean(speedups), "x");
    rep.metric("sim_energy_saving_pct", mean(savings), "%");
}

} // namespace sysbench
} // namespace mflstm
