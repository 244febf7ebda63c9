/**
 * @file
 * mflstm_cli — command-line experiment driver.
 *
 * Subcommands:
 *   list                         the Table II applications
 *   run   --app NAME [options]   run one plan at one threshold set
 *   sweep --app NAME [options]   sweep the full threshold ladder
 *   mts   --app NAME             the Fig. 9 tissue-size sweep
 *   serve --app NAME [options]   batched serving demo (DESIGN.md §9)
 *   fleet --app NAME [options]   replicated serving with failover and
 *                                a deterministic chaos schedule
 *                                (DESIGN.md §16)
 *   profile --app NAME [options] byte-ledger attribution profile
 *                                (DESIGN.md §13)
 *   tune  --app NAME [options]   search per-layer schedules and cache
 *                                the dominating plan (DESIGN.md §14)
 *   fsck  [--cache-dir DIR]      verify every artifact in a cache dir
 *   backends                     list the hardware backend registry
 *                                (DESIGN.md §17)
 *   help                         print usage
 *
 * Common options:
 *   --plan baseline|inter|intra-sw|intra-hw|combined|zero-pruning|
 *          persistent
 *   --set N            threshold ladder rung (0..10, default AO)
 *   --quant MODE       fp32|int8|int4 weight precision (default fp32;
 *                      ignored by --plan zero-pruning, whose CSR
 *                      comparator is defined on fp32 weights)
 *   --backend NAME     hardware backend from the registry (default
 *                      tx1; see `mflstm backends`); an unknown name
 *                      exits with status 2
 *   --csv              emit one CSV row instead of the table
 *   --trace-csv FILE   dump the lowered kernel trace as CSV
 *   --trace-out FILE   write a Chrome trace-event JSON timeline
 *                      (open in Perfetto / chrome://tracing)
 *   --metrics-out FILE write the metrics registry (see --metrics-format)
 *   --metrics-format F json (default) or prom (Prometheus text
 *                      exposition) for --metrics-out
 *   --help             print usage and exit
 *
 * profile options:
 *   --out FILE         write the attribution report JSON
 *   --baseline FILE    differential mode: diff this run against a
 *                      previously written report; per-node regressions
 *                      beyond --tolerance-pct exit 1
 *   --tolerance-pct X  regression threshold, percent (default 0.1)
 *
 * tune options:
 *   --out FILE         write the tune report JSON ("mflstm.tune")
 *   --cache-dir DIR    tuned-plan artifact cache (default
 *                      mflstm_model_cache); a valid cached plan skips
 *                      the search, a corrupt one is quarantined
 *   --force            ignore (and rewrite) the cached plan
 *   --batch N          batch the plan is tuned for (default 8,
 *                      matching serve)
 *
 * serve options (synthetic open-loop workload):
 *   --tuned            serve sched-searched plans instead of the
 *                      --plan preset on every rung (never worse on
 *                      simulated time or DRAM bytes); with
 *                      --state-dir the tuned plans are cached there
 *   --requests N       requests to submit (default 64)
 *   --batch N          max sequences per batched run (default 8)
 *   --workers N        engine worker threads (default 2)
 *   --arrival-us N     mean inter-arrival gap in microseconds
 *                      (default 200; 0 = submit everything at once)
 *   --deadline-ms X    per-request wall deadline (default 0 = none)
 *   --queue-capacity N bound the request queue (default 0 = unbounded)
 *   --admission P      reject | drop-oldest | block (default reject)
 *   --admit-timeout-ms X  producer wait bound for block (default 5)
 *   --fault-rate X     transient-fault injection probability per site
 *   --chaos-seed N     seed for the fault injector (default 1); the
 *                      same seed replays the same fault schedule
 *   --retries N        retry budget after a transient fault (default 2)
 *   --governor         degrade thresholds AO->BPA under pressure
 *   --state-dir DIR    persist calibration + engine warm state in DIR
 *                      and restore them on the next start; SIGTERM /
 *                      SIGINT triggers a graceful drain (stop
 *                      admissions, finish in-flight batches, save
 *                      state, exit 0)
 *
 * fleet options (replicated serving; also takes the serve knobs
 * --requests/--batch/--workers/--deadline-ms/--governor):
 *   --replicas N       engine replicas behind the router (default 2)
 *   --policy P         affinity | round-robin | least-loaded
 *                      (default affinity)
 *   --chaos            install ChaosPlan::standard over the run: one
 *                      crash, brownout, corrupt restart and flash
 *                      crowd in disjoint quarters of the horizon
 *   --chaos-seed N     chaos plan seed (default 1); recorded in the
 *                      output so any run replays bit-identically
 *   --no-failover      disable failover/hedging/parking — a failure
 *                      is terminal (the bench gate's control arm)
 *   --ticks N          control ticks to drive (default 16)
 *   --store-dir DIR    shared warm-state artifact store (default
 *                      mflstm_fleet_store); replica 0 seeds it, the
 *                      rest warm-boot from it
 *   exit status: 0 = every accepted request reached a terminal
 *   response, 1 = requests were lost
 *
 * fsck options:
 *   --cache-dir DIR    directory to verify (default mflstm_model_cache)
 *   --quarantine       rename corrupt files to <name>.corrupt
 *   exit status: 0 = everything verified, 1 = corruption found
 *
 * Corrupt cache artifacts never abort a run: they are quarantined
 * (renamed *.corrupt), counted in artifact_load_rejected_total, and
 * recomputed.
 *
 * Any unrecognised argument prints usage and exits with status 2.
 * Trained accuracy models are cached in ./mflstm_model_cache.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "core/persist.hh"
#include "fleet/fleet.hh"
#include "harness.hh"
#include "hw/backend.hh"
#include "io/fsck.hh"
#include "nn/serialize.hh"
#include "obs/ledger.hh"
#include "obs/observer.hh"
#include "obs/profile.hh"
#include "obs/json.hh"
#include "runtime/report.hh"
#include "sched/persist.hh"
#include "serve/engine.hh"
#include "serve/persist.hh"

namespace {

using namespace mflstm;
using namespace mflstm::bench;

struct Options
{
    std::string command;
    std::string app = "IMDB";
    runtime::PlanKind plan = runtime::PlanKind::Combined;
    std::optional<std::size_t> set;
    quant::QuantMode quantMode = quant::QuantMode::Fp32;
    std::string backend = "tx1";
    bool csv = false;
    std::string traceCsv;
    std::string traceOut;
    std::string metricsOut;
    std::string metricsFormat = "json";

    // profile
    std::string profileOut;
    std::string baselinePath;
    double tolerancePct = 0.1;

    // serve
    std::size_t requests = 64;
    std::size_t batch = 8;
    std::size_t workers = 2;
    std::size_t arrivalUs = 200;
    double deadlineMs = 0.0;
    std::size_t queueCapacity = 0;
    serve::AdmissionPolicy admission = serve::AdmissionPolicy::RejectNew;
    double admitTimeoutMs = 5.0;
    double faultRate = 0.0;
    std::uint64_t chaosSeed = 1;
    int retries = 2;
    bool governor = false;
    bool tuned = false;
    std::string stateDir;

    // fleet
    std::size_t replicas = 2;
    fleet::RoutingPolicy policy = fleet::RoutingPolicy::SessionAffinity;
    bool chaos = false;
    bool failover = true;
    std::size_t ticks = 16;
    std::string storeDir = "mflstm_fleet_store";

    // tune
    bool forceTune = false;

    // fsck
    std::string cacheDir = "mflstm_model_cache";
    bool quarantineBad = false;

    /** The observability sinks were requested on the command line. */
    bool wantsObserver() const
    {
        return !traceOut.empty() || !metricsOut.empty();
    }
};

std::optional<runtime::PlanKind>
parsePlan(const std::string &s)
{
    // The round-trip parser owns the alias table; Tuned is not a
    // requestable preset (it only exists as a search *result*), so a
    // --plan tuned is redirected to the tune subcommand.
    return runtime::planKindFromString(s);
}

/**
 * The thresholds preset @p kind runs rung @p set at: the alphas of the
 * mechanisms it does not use zeroed, at precision @p qm.
 */
core::ThresholdSet
presetThresholds(runtime::PlanKind kind, const core::ThresholdSet &set,
                 quant::QuantMode qm)
{
    return {runtime::presetUsesTissues(kind) ? set.alphaInter : 0.0,
            runtime::presetUsesSkip(kind) ? set.alphaIntra : 0.0, qm};
}

/**
 * Resolve a backend id through the hw registry. --backend validates at
 * parse time, so get() cannot throw here.
 */
gpu::GpuConfig
gpuFor(const std::string &name)
{
    return hw::registry().get(name).config;
}

/** `mflstm backends`: print the hardware backend registry. */
int
cmdBackends(const Options &)
{
    std::printf("%-6s %-12s %-4s %-10s %s\n", "id", "kind", "rev",
                "caps", "backend");
    for (const hw::Backend &b : hw::registry().entries()) {
        std::string caps;
        if (b.config.int8DotUnits)
            caps += "dp4a";
        if (b.config.explicitWeightMemory)
            caps += caps.empty() ? "wmem" : "+wmem";
        if (caps.empty())
            caps = "-";
        std::printf("%-6s %-12s %-4d %-10s %s\n", b.id.c_str(),
                    hw::toString(b.kind), b.revision, caps.c_str(),
                    b.display.c_str());
        std::printf("%-6s %s\n", "", b.summary.c_str());
    }
    return 0;
}

/** Write the observer's sinks to the files requested in @p opt. */
int
writeObserverOutputs(const Options &opt, const obs::Observer &observer)
{
    if (!opt.traceOut.empty()) {
        std::ofstream os(opt.traceOut);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opt.traceOut.c_str());
            return 2;
        }
        observer.tracer().writeChromeTrace(os);
        std::fprintf(stderr,
                     "trace written to %s (open in "
                     "https://ui.perfetto.dev)\n",
                     opt.traceOut.c_str());
    }
    if (!opt.metricsOut.empty()) {
        std::ofstream os(opt.metricsOut);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opt.metricsOut.c_str());
            return 2;
        }
        if (opt.metricsFormat == "prom")
            observer.metrics().writePrometheus(os);
        else
            observer.metrics().writeJson(os);
        std::fprintf(stderr, "metrics written to %s (%s)\n",
                     opt.metricsOut.c_str(), opt.metricsFormat.c_str());
    }
    return 0;
}

int
cmdList(const Options &)
{
    std::printf("%-6s %-4s %8s %7s %7s  %s\n", "name", "abbr", "hidden",
                "layers", "length", "task");
    for (const workloads::BenchmarkSpec &spec : workloads::tableII()) {
        std::printf("%-6s %-4s %8zu %7zu %7zu  %s\n", spec.name.c_str(),
                    spec.abbrev.c_str(), spec.hiddenSize, spec.numLayers,
                    spec.length,
                    spec.isLanguageModel() ? "language-model"
                                           : "classification");
    }
    return 0;
}

int
cmdRun(const Options &opt)
{
    obs::Observer observer;
    obs::Observer *obs = opt.wantsObserver() ? &observer : nullptr;

    AppContext app;
    {
        auto ph = obs::Observer::phase(obs, "app-setup");
        app = makeApp(workloads::benchmarkByName(opt.app));
    }
    auto mf = std::make_unique<core::MemoryFriendlyLstm>(
        *app.model,
        core::MemoryFriendlyLstm::Config{
            gpuFor(opt.backend), app.spec.timingShape(), obs});
    mf->calibrate(app.data.calibrationSequences(kCalibrationSeqs));
    auto ladder = mf->calibration().ladder();
    for (core::ThresholdSet &set : ladder)
        set.quant = opt.quantMode;

    // Pick the rung: explicit --set, otherwise this plan's AO.
    std::size_t rung;
    if (opt.set) {
        if (*opt.set >= ladder.size()) {
            std::fprintf(stderr, "error: --set must be 0..%zu\n",
                         ladder.size() - 1);
            return 2;
        }
        rung = *opt.set;
    } else {
        const SchemeCurve curve =
            evaluateScheme(*mf, app, opt.plan, ladder);
        rung = core::selectAo(curve.points, app.baselineAccuracy, 2.0);
    }

    mf->setThresholds(
        presetThresholds(opt.plan, ladder[rung], opt.quantMode));
    double acc = 0.0;
    {
        auto ph = obs::Observer::phase(obs, "accuracy-eval");
        acc = evalAccuracy(*mf, app);
    }
    const core::TimingOutcome out = mf->evaluateTiming(opt.plan);

    if (!opt.traceCsv.empty()) {
        std::ofstream os(opt.traceCsv);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opt.traceCsv.c_str());
            return 2;
        }
        runtime::writeTraceCsv(
            os, mf->executor().lowering().lower(
                    mf->config().timingShape, out.plan));
        std::fprintf(stderr, "kernel trace written to %s\n",
                     opt.traceCsv.c_str());
    }

    if (const int rc = writeObserverOutputs(opt, observer))
        return rc;

    if (opt.csv) {
        std::printf("%s\n", runtime::runCsvHeader().c_str());
        std::printf("%s\n",
                    runtime::runCsvRow(opt.app, out.report).c_str());
        return 0;
    }

    std::printf("%s (threshold set %zu, weights %s, GPU %s)\n",
                opt.app.c_str(), rung, quant::toString(opt.quantMode),
                mf->executor().config().name.c_str());
    std::printf("accuracy %.1f%% (baseline %.1f%%)\n\n", 100.0 * acc,
                100.0 * app.baselineAccuracy);
    std::printf("%s\n",
                runtime::formatComparison(mf->baseline(), out.report)
                    .c_str());
    std::printf("%s", runtime::formatRunReport(out.report).c_str());
    return 0;
}

int
cmdSweep(const Options &opt)
{
    obs::Observer observer;
    obs::Observer *obs = opt.wantsObserver() ? &observer : nullptr;

    AppContext app;
    {
        auto ph = obs::Observer::phase(obs, "app-setup");
        app = makeApp(workloads::benchmarkByName(opt.app));
    }
    auto mf = std::make_unique<core::MemoryFriendlyLstm>(
        *app.model,
        core::MemoryFriendlyLstm::Config{
            gpuFor(opt.backend), app.spec.timingShape(), obs});
    mf->calibrate(app.data.calibrationSequences(kCalibrationSeqs));
    auto ladder = mf->calibration().ladder();
    for (core::ThresholdSet &set : ladder)
        set.quant = opt.quantMode;
    const SchemeCurve curve =
        evaluateScheme(*mf, app, opt.plan, ladder);

    if (const int rc = writeObserverOutputs(opt, observer))
        return rc;

    if (opt.csv) {
        std::printf("set,alpha_inter,alpha_intra,speedup,accuracy\n");
        for (const auto &pt : curve.points) {
            std::printf("%zu,%g,%g,%g,%g\n", pt.index,
                        pt.set.alphaInter, pt.set.alphaIntra,
                        pt.speedup, pt.accuracy);
        }
        return 0;
    }

    std::printf("%s / %s (baseline accuracy %.1f%%)\n", opt.app.c_str(),
                runtime::toString(opt.plan), 100.0 * app.baselineAccuracy);
    std::printf("%4s %12s %12s %9s %9s\n", "set", "alpha_inter",
                "alpha_intra", "speedup", "accuracy");
    for (const auto &pt : curve.points) {
        std::printf("%4zu %12.2f %12.4f %8.2fx %8.1f%%\n", pt.index,
                    pt.set.alphaInter, pt.set.alphaIntra, pt.speedup,
                    100.0 * pt.accuracy);
    }
    const std::size_t ao =
        core::selectAo(curve.points, app.baselineAccuracy, 2.0);
    std::printf("AO = set %zu, BPA = set %zu\n", ao,
                core::selectBpa(curve.points));
    return 0;
}

int
cmdMts(const Options &opt)
{
    obs::Observer observer;
    obs::Observer *obs = opt.wantsObserver() ? &observer : nullptr;

    const workloads::BenchmarkSpec &spec =
        workloads::benchmarkByName(opt.app);
    runtime::NetworkExecutor ex(gpuFor(opt.backend), obs);
    const core::MtsResult res = core::findMts(
        ex, {spec.hiddenSize, spec.hiddenSize, spec.length}, 10);

    if (const int rc = writeObserverOutputs(opt, observer))
        return rc;

    std::printf("%s on %s\n", opt.app.c_str(),
                ex.config().name.c_str());
    std::printf("%4s %12s %10s\n", "k", "layer time", "shared bw");
    for (std::size_t k = 1; k <= res.timesUs.size(); ++k) {
        std::printf("%4zu %10.2fms %9.0f%% %s\n", k,
                    res.timesUs[k - 1] / 1e3,
                    100.0 * res.sharedUtilization[k - 1],
                    k == res.mts ? "<- MTS" : "");
    }
    return 0;
}

int
cmdProfile(const Options &opt)
{
    obs::Observer observer;
    obs::Observer *obs = opt.wantsObserver() ? &observer : nullptr;

    AppContext app;
    {
        auto ph = obs::Observer::phase(obs, "app-setup");
        app = makeApp(workloads::benchmarkByName(opt.app));
    }
    auto mf = std::make_unique<core::MemoryFriendlyLstm>(
        *app.model,
        core::MemoryFriendlyLstm::Config{
            gpuFor(opt.backend), app.spec.timingShape(), obs});
    mf->calibrate(app.data.calibrationSequences(kCalibrationSeqs));
    auto ladder = mf->calibration().ladder();
    for (core::ThresholdSet &set : ladder)
        set.quant = opt.quantMode;

    // A mid-ladder rung keeps the profile cheap (no AO sweep);
    // override with --set. Matches the serve default, so a profile
    // explains what serve runs.
    const std::size_t rung = opt.set ? *opt.set : ladder.size() / 2;
    if (rung >= ladder.size()) {
        std::fprintf(stderr, "error: --set must be 0..%zu\n",
                     ladder.size() - 1);
        return 2;
    }
    mf->setThresholds(
        presetThresholds(opt.plan, ladder[rung], opt.quantMode));
    // Populate the division/skip statistics the planner projects.
    evalAccuracy(*mf, app);
    const core::TimingOutcome out = mf->evaluateTiming(opt.plan);

    // Re-run the planned trace with the ledger attached: attribution
    // is a pure relabeling, so timing is identical to evaluateTiming.
    runtime::NetworkExecutor ex(gpuFor(opt.backend), obs);
    obs::TrafficLedger ledger;
    ex.setLedger(&ledger);
    const runtime::RunReport rep =
        ex.run(mf->config().timingShape, out.plan);

    obs::ProfileReport report = obs::ProfileReport::build(
        ledger, rep.result.dramBytes, rep.result.timeUs);
    report.app = opt.app;
    report.plan = runtime::toString(opt.plan);
    report.quant = quant::toString(opt.quantMode);
    report.batch = 1;

    std::printf("%s", report.formatTable().c_str());

    if (!opt.profileOut.empty()) {
        std::ofstream os(opt.profileOut);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opt.profileOut.c_str());
            return 2;
        }
        report.writeJson(os);
        std::fprintf(stderr, "profile report written to %s\n",
                     opt.profileOut.c_str());
    }

    if (const int rc = writeObserverOutputs(opt, observer))
        return rc;

    if (!report.conserved()) {
        std::fprintf(stderr,
                     "error: conservation invariant broken (see "
                     "table)\n");
        return 1;
    }

    if (!opt.baselinePath.empty()) {
        std::ifstream is(opt.baselinePath);
        if (!is) {
            std::fprintf(stderr, "error: cannot read %s\n",
                         opt.baselinePath.c_str());
            return 2;
        }
        std::ostringstream text;
        text << is.rdbuf();
        obs::ProfileReport base;
        try {
            base = obs::ProfileReport::parseJsonText(text.str());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "error: %s: %s\n",
                         opt.baselinePath.c_str(), e.what());
            return 2;
        }
        // Round-trip the baseline's plan/quant strings through the
        // canonical parsers so a hand-edited or foreign report fails
        // loudly instead of diffing apples against oranges.
        if (!base.plan.empty() &&
            !runtime::planKindFromString(base.plan)) {
            std::fprintf(stderr, "error: %s: unknown plan \"%s\"\n",
                         opt.baselinePath.c_str(), base.plan.c_str());
            return 2;
        }
        if (!base.quant.empty() &&
            !quant::parseQuantMode(base.quant)) {
            std::fprintf(stderr, "error: %s: unknown quant \"%s\"\n",
                         opt.baselinePath.c_str(), base.quant.c_str());
            return 2;
        }
        const std::vector<obs::ProfileDelta> deltas =
            obs::diffReports(base, report, opt.tolerancePct);
        std::size_t regressions = 0;
        for (const auto &d : deltas)
            if (d.regression)
                ++regressions;
        if (deltas.empty()) {
            std::printf("\nbaseline %s: no per-node differences\n",
                        opt.baselinePath.c_str());
        } else {
            std::printf("\nbaseline %s: %zu node(s) changed, %zu "
                        "regression(s) beyond %.2f%%\n%s",
                        opt.baselinePath.c_str(), deltas.size(),
                        regressions, opt.tolerancePct,
                        obs::formatDeltas(deltas).c_str());
        }
        if (regressions)
            return 1;
    }
    return 0;
}

int
cmdTune(const Options &opt)
{
    obs::Observer observer;
    obs::Observer *obs = opt.wantsObserver() ? &observer : nullptr;

    AppContext app;
    {
        auto ph = obs::Observer::phase(obs, "app-setup");
        app = makeApp(workloads::benchmarkByName(opt.app));
    }
    auto mf = std::make_unique<core::MemoryFriendlyLstm>(
        *app.model,
        core::MemoryFriendlyLstm::Config{
            gpuFor(opt.backend), app.spec.timingShape(), obs});
    mf->calibrate(app.data.calibrationSequences(kCalibrationSeqs));
    auto ladder = mf->calibration().ladder();
    for (core::ThresholdSet &set : ladder)
        set.quant = opt.quantMode;

    // A mid-ladder rung keeps the tune cheap (no AO sweep); override
    // with --set. Both thresholds are applied so the statistics feed
    // every searchable path (tissues and row skip).
    const std::size_t rung = opt.set ? *opt.set : ladder.size() / 2;
    if (rung >= ladder.size()) {
        std::fprintf(stderr, "error: --set must be 0..%zu\n",
                     ladder.size() - 1);
        return 2;
    }
    mf->setThresholds({ladder[rung].alphaInter,
                       ladder[rung].alphaIntra, opt.quantMode});
    // Populate the division/skip statistics the search projects from.
    evalAccuracy(*mf, app);

    sched::TuneRequest treq;
    treq.shape = mf->config().timingShape;
    treq.backendId = opt.backend;
    treq.stats = mf->runner().stats();
    treq.mts = mf->calibration().mts;
    treq.modelHidden = mf->runner().model().config().hiddenSize;
    treq.quant = opt.quantMode;
    treq.batch = opt.batch;
    const std::uint32_t weights_crc =
        core::modelWeightsCrc(mf->runner().model());

    std::error_code ec;
    std::filesystem::create_directories(opt.cacheDir, ec);
    const std::string cachePath =
        opt.cacheDir + "/tuned_plan_" + opt.app + "_" + opt.backend +
        "_" + quant::toString(opt.quantMode) + "_set" +
        std::to_string(rung) + ".bin";

    sched::TuneResult res;
    {
        auto ph = obs::Observer::phase(obs, "tune");
        res = sched::tuneCached(mf->executor(), treq, weights_crc,
                                cachePath, {}, obs, opt.forceTune);
    }

    std::printf("%s on %s (threshold set %zu, weights %s, batch %zu)\n",
                opt.app.c_str(), mf->executor().config().name.c_str(),
                rung, quant::toString(opt.quantMode), treq.batch);
    std::printf("tuned plan cache: %s (%s)\n\n", cachePath.c_str(),
                res.fromCache ? "hit, search skipped"
                              : "miss, searched");

    std::printf("%-22s %12s %12s\n", "candidate", "time (ms)",
                "DRAM (MB)");
    for (const sched::Candidate &c : res.candidates) {
        std::printf("%-22s %12.3f %12.3f%s%s\n", c.label.c_str(),
                    c.timeUs / 1e3, c.dramBytes / 1e6,
                    c.label == res.chosen.label ? "  <- chosen" : "",
                    c.label == res.referenceLabel ? "  <- reference"
                                                  : "");
    }

    std::printf("\nchosen: %s (%.3f ms, %.3f MB)\n",
                res.chosen.label.c_str(), res.chosen.timeUs / 1e3,
                res.chosen.dramBytes / 1e6);
    for (std::size_t l = 0; l < res.chosenLayerLabels.size(); ++l)
        std::printf("  layer %zu: %s\n", l,
                    res.chosenLayerLabels[l].c_str());
    std::printf("reference: %s (%.3f ms, %.3f MB)\n",
                res.referenceLabel.c_str(), res.referenceTimeUs / 1e3,
                res.referenceDramBytes / 1e6);
    std::printf("dominates reference: %s\n",
                res.dominatesReference ? "yes" : "NO");

    if (!opt.profileOut.empty()) {
        std::ofstream os(opt.profileOut);
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         opt.profileOut.c_str());
            return 2;
        }
        obs::JsonWriter w(os);
        w.beginObject();
        w.key("schema").value("mflstm.tune");
        w.key("version").value(std::uint64_t{1});
        w.key("app").value(opt.app);
        w.key("backend").value(opt.backend);
        w.key("gpu").value(mf->executor().config().name);
        w.key("quant").value(quant::toString(opt.quantMode));
        w.key("batch").value(static_cast<std::uint64_t>(treq.batch));
        w.key("set").value(static_cast<std::uint64_t>(rung));
        w.key("from_cache").value(res.fromCache);
        w.key("chosen").beginObject();
        w.key("label").value(res.chosen.label);
        w.key("time_us").value(res.chosen.timeUs);
        w.key("dram_bytes").value(res.chosen.dramBytes);
        w.key("layers").beginArray();
        for (const std::string &l : res.chosenLayerLabels)
            w.value(l);
        w.endArray();
        w.endObject();
        w.key("reference").beginObject();
        w.key("label").value(res.referenceLabel);
        w.key("time_us").value(res.referenceTimeUs);
        w.key("dram_bytes").value(res.referenceDramBytes);
        w.endObject();
        w.key("dominates_reference").value(res.dominatesReference);
        w.key("candidates").beginArray();
        for (const sched::Candidate &c : res.candidates) {
            w.beginObject();
            w.key("label").value(c.label);
            w.key("time_us").value(c.timeUs);
            w.key("dram_bytes").value(c.dramBytes);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
        std::fprintf(stderr, "tune report written to %s\n",
                     opt.profileOut.c_str());
    }

    if (const int rc = writeObserverOutputs(opt, observer))
        return rc;
    return res.dominatesReference ? 0 : 1;
}

/**
 * Schema-aware deep verification for fsck: the container layer has
 * already checked structure + checksums; this decodes the payload with
 * the same hardened loaders the runtime uses.
 */
void
deepVerifyArtifact(const std::string &path, std::uint32_t schema)
{
    switch (schema) {
    case io::kSchemaModel:
        nn::verifyModelFile(path);
        break;
    case io::kSchemaCalibration:
        core::verifyCalibrationFile(path);
        break;
    case io::kSchemaEngineState:
        serve::verifyEngineStateFile(path);
        break;
    case io::kSchemaTunedPlan:
        sched::verifyTunedPlanFile(path);
        break;
    default:
        throw io::ArtifactError(io::ErrorKind::BadSchema,
                                "fsck: " + path +
                                    ": unknown schema kind " +
                                    std::to_string(schema));
    }
}

int
cmdFsck(const Options &opt)
{
    const io::FsckReport report =
        io::fsckDirectory(opt.cacheDir, {}, deepVerifyArtifact);

    if (report.entries.empty()) {
        std::printf("fsck: %s: no artifacts found\n",
                    opt.cacheDir.c_str());
        return 0;
    }

    std::size_t quarantined = 0;
    for (const io::FsckEntry &e : report.entries) {
        if (e.ok) {
            std::printf("ok       %-28s %s", e.format.c_str(),
                        e.path.c_str());
            if (e.chunks)
                std::printf("  (%zu chunks)", e.chunks);
            std::printf("\n");
            continue;
        }
        std::printf("CORRUPT  %-28s %s\n         reason: %s\n",
                    io::toString(e.kind), e.path.c_str(),
                    e.detail.c_str());
        if (opt.quarantineBad) {
            const std::string moved = io::quarantine(e.path);
            if (!moved.empty()) {
                std::printf("         quarantined to %s\n",
                            moved.c_str());
                ++quarantined;
            }
        }
    }

    const std::size_t bad = report.corruptCount();
    std::printf("fsck: %zu artifact(s), %zu corrupt",
                report.entries.size(), bad);
    if (opt.quarantineBad)
        std::printf(", %zu quarantined", quarantined);
    std::printf("\n");
    return bad ? 1 : 0;
}

/// set by the SIGTERM/SIGINT handler installed under serve --state-dir
std::atomic<bool> g_drainRequested{false};

extern "C" void
onDrainSignal(int)
{
    g_drainRequested.store(true, std::memory_order_relaxed);
}

int
cmdServe(const Options &opt)
{
    obs::Observer observer;
    obs::Observer *obs = opt.wantsObserver() ? &observer : nullptr;

    AppContext app;
    {
        auto ph = obs::Observer::phase(obs, "app-setup");
        app = makeApp(workloads::benchmarkByName(opt.app));
    }
    auto mf = std::make_unique<core::MemoryFriendlyLstm>(
        *app.model,
        core::MemoryFriendlyLstm::Config{
            gpuFor(opt.backend), app.spec.timingShape(), obs});

    const std::string calibPath = opt.stateDir + "/calibration.bin";
    const std::string enginePath = opt.stateDir + "/engine_state.bin";

    // Warm restart, half 1: a saved calibration skips the offline MTS
    // sweep + predictor collection. A corrupt or stale file is
    // quarantined and the cold path recomputes it.
    bool warmCalibration = false;
    if (!opt.stateDir.empty() &&
        std::filesystem::exists(calibPath)) {
        try {
            core::loadCalibration(*mf, calibPath, {}, obs);
            warmCalibration = true;
            std::fprintf(stderr, "[serve] calibration restored from %s\n",
                         calibPath.c_str());
        } catch (const io::ArtifactError &e) {
            const std::string moved = io::quarantine(calibPath);
            std::fprintf(stderr,
                         "[serve] %s rejected (%s); quarantined to %s; "
                         "recalibrating\n",
                         calibPath.c_str(), io::toString(e.kind()),
                         moved.empty() ? "(rename failed)"
                                       : moved.c_str());
        }
    }
    if (!warmCalibration)
        mf->calibrate(app.data.calibrationSequences(kCalibrationSeqs));
    auto ladder = mf->calibration().ladder();
    for (core::ThresholdSet &set : ladder)
        set.quant = opt.quantMode;

    // A mid-ladder rung keeps startup cheap (no AO sweep); override
    // with --set.
    const std::size_t rung =
        opt.set ? *opt.set : ladder.size() / 2;
    if (rung >= ladder.size()) {
        std::fprintf(stderr, "error: --set must be 0..%zu\n",
                     ladder.size() - 1);
        return 2;
    }
    mf->setThresholds(
        presetThresholds(opt.plan, ladder[rung], opt.quantMode));
    // Populate the division/skip statistics the planner projects.
    evalAccuracy(*mf, app);

    serve::InferenceEngine::Options eopts;
    eopts.maxBatch = opt.batch;
    eopts.workers = opt.workers;
    eopts.plan = opt.plan;
    eopts.observer = obs;
    eopts.queueCapacity = opt.queueCapacity;
    eopts.admission = opt.admission;
    eopts.admitTimeoutMs = opt.admitTimeoutMs;
    eopts.maxRetries = opt.retries;
    eopts.tunePlans = opt.tuned;
    eopts.tuneCacheDir = opt.stateDir;
    eopts.backendId = opt.backend;

    // Must outlive the engine (workers consult it per batch/request).
    std::optional<serve::ProbabilisticFaultInjector> injector;
    if (opt.faultRate > 0.0) {
        injector.emplace(opt.faultRate, opt.chaosSeed);
        eopts.faultInjector = &*injector;
    }

    // Warm restart, half 2: a saved engine state skips the per-rung
    // snapshots (and, under --governor, the AO/BPA locating sweep).
    std::unique_ptr<serve::InferenceEngine> engine;
    if (!opt.stateDir.empty() &&
        std::filesystem::exists(enginePath)) {
        try {
            const serve::EngineWarmState warm =
                serve::loadEngineState(enginePath, {}, obs);
            engine = std::make_unique<serve::InferenceEngine>(
                *mf, eopts, warm);
            std::fprintf(stderr,
                         "[serve] engine warm-started from %s "
                         "(%zu rung(s))\n",
                         enginePath.c_str(), engine->ladder().size());
        } catch (const io::ArtifactError &e) {
            const std::string moved = io::quarantine(enginePath);
            std::fprintf(stderr,
                         "[serve] %s rejected (%s); quarantined to %s; "
                         "cold start\n",
                         enginePath.c_str(), io::toString(e.kind()),
                         moved.empty() ? "(rename failed)"
                                       : moved.c_str());
        }
    }
    if (!engine) {
        if (opt.governor) {
            // Sweep the full ladder once to locate this app's AO and
            // BPA sets, then serve on the AO->BPA slice between them.
            const SchemeCurve curve =
                evaluateScheme(*mf, app, opt.plan, ladder);
            eopts.governorLadder = core::aoToBpaLadder(
                curve.points, app.baselineAccuracy, 2.0);
            eopts.planningSequences =
                app.data.calibrationSequences(kCalibrationSeqs);
        }
        engine = std::make_unique<serve::InferenceEngine>(*mf, eopts);
    }
    serve::Session session = engine->session();

    if (!opt.stateDir.empty()) {
        std::signal(SIGTERM, onDrainSignal);
        std::signal(SIGINT, onDrainSignal);
    }

    // Open-loop arrivals: submit on a fixed clock regardless of
    // completion, cycling through the calibration sequences.
    const auto seqs = app.data.calibrationSequences(kCalibrationSeqs);
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(opt.requests);
    for (std::size_t i = 0; i < opt.requests; ++i) {
        if (g_drainRequested.load(std::memory_order_relaxed)) {
            std::fprintf(stderr,
                         "[serve] drain requested after %zu of %zu "
                         "requests; stopping admissions\n",
                         i, opt.requests);
            break;
        }
        futures.push_back(session.infer(seqs[i % seqs.size()],
                                        opt.deadlineMs));
        if (opt.arrivalUs > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(opt.arrivalUs));
    }

    // batch size -> simulated weight-DRAM bytes per sequence
    std::map<std::size_t, double> weight_by_batch;
    std::map<serve::Status, std::uint64_t> by_status;
    for (auto &f : futures) {
        const serve::Response r = f.get();
        ++by_status[r.status];
        if (r.status == serve::Status::Ok)
            weight_by_batch[r.batch] = r.weightDramBytesPerSeq;
    }

    // Graceful exit: finish everything queued, then (with --state-dir)
    // persist calibration + engine warm state for the next start.
    if (!opt.stateDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.stateDir, ec);
        engine->drainAndSaveState(enginePath);
        core::saveCalibration(*mf, calibPath);
        std::fprintf(stderr, "[serve] warm state saved to %s\n",
                     opt.stateDir.c_str());
    } else {
        engine->shutdown();
    }
    if (g_drainRequested.load(std::memory_order_relaxed))
        std::fprintf(stderr,
                     "[serve] drained cleanly after signal\n");

    const serve::InferenceEngine::Stats st = engine->stats();
    std::printf("%s / %s on %s (threshold set %zu)\n", opt.app.c_str(),
                runtime::toString(opt.plan), gpuFor(opt.backend).name.c_str(),
                rung);
    std::printf("served %llu requests in %llu batches "
                "(mean batch %.2f, max %zu, workers %zu)\n",
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.batches),
                st.meanBatchSize, st.maxBatchObserved, opt.workers);
    std::printf("wall latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n",
                engine->latencyQuantileMs(0.50),
                engine->latencyQuantileMs(0.90),
                engine->latencyQuantileMs(0.99));

    // Lifecycle decomposition from the per-request histograms.
    const auto stage_q = [&](const char *name, double q) {
        const obs::Histogram *h =
            engine->observer().metrics().findHistogram(name);
        return h ? h->quantile(q) : 0.0;
    };
    std::printf("\nrequest lifecycle (ms):\n");
    std::printf("%-12s %10s %10s\n", "stage", "p50", "p95");
    std::printf("%-12s %10.3f %10.3f\n", "queue",
                stage_q("serve.queue_ms", 0.50),
                stage_q("serve.queue_ms", 0.95));
    std::printf("%-12s %10.3f %10.3f\n", "batch-wait",
                stage_q("serve.batch_wait_ms", 0.50),
                stage_q("serve.batch_wait_ms", 0.95));
    std::printf("%-12s %10.3f %10.3f\n", "exec",
                stage_q("serve.exec_ms", 0.50),
                stage_q("serve.exec_ms", 0.95));

    std::printf("\nstatus distribution:\n");
    for (const auto &[status, n] : by_status)
        std::printf("  %-18s %llu\n", serve::toString(status),
                    static_cast<unsigned long long>(n));
    std::printf("overload control: admission %s, queue high-water %zu, "
                "shed-before-run %llu, late %llu, rejected %llu "
                "(evicted %llu)\n",
                serve::toString(opt.admission), st.queueHighWater,
                static_cast<unsigned long long>(st.shedBeforeRun),
                static_cast<unsigned long long>(st.lateCompletions),
                static_cast<unsigned long long>(st.rejected),
                static_cast<unsigned long long>(st.evicted));
    if (opt.faultRate > 0.0) {
        std::printf("fault tolerance: injected %llu, retries %llu, "
                    "failed %llu, worker restarts %llu "
                    "(chaos seed %llu)\n",
                    static_cast<unsigned long long>(injector->injected()),
                    static_cast<unsigned long long>(st.retries),
                    static_cast<unsigned long long>(st.failed),
                    static_cast<unsigned long long>(st.workerRestarts),
                    static_cast<unsigned long long>(opt.chaosSeed));
    }
    if (opt.governor) {
        std::printf("governor: ladder %zu rungs, steps up %llu / down "
                    "%llu, final rung %zu\n",
                    engine->ladder().size(),
                    static_cast<unsigned long long>(st.governorStepsUp),
                    static_cast<unsigned long long>(st.governorStepsDown),
                    engine->activeRung());
    }
    if (opt.deadlineMs > 0.0) {
        std::printf("deadline %.1f ms missed by %llu requests\n",
                    opt.deadlineMs,
                    static_cast<unsigned long long>(st.deadlineMisses));
    }
    std::printf("\nweight-matrix DRAM per sequence (simulated, "
                "amortised over the batch):\n");
    std::printf("%6s %16s\n", "batch", "weight MB/seq");
    for (const auto &[b, bytes] : weight_by_batch)
        std::printf("%6zu %16.3f\n", b, bytes / 1e6);

    return writeObserverOutputs(opt, observer);
}

int
cmdFleet(const Options &opt)
{
    obs::Observer observer;
    obs::Observer *obs = opt.wantsObserver() ? &observer : nullptr;

    if (opt.chaos && opt.ticks < 8) {
        std::fprintf(stderr,
                     "error: --chaos needs --ticks >= 8 (the standard "
                     "plan places one event per horizon quarter)\n");
        return 2;
    }

    AppContext app;
    {
        auto ph = obs::Observer::phase(obs, "app-setup");
        app = makeApp(workloads::benchmarkByName(opt.app));
    }
    auto mf = std::make_unique<core::MemoryFriendlyLstm>(
        *app.model,
        core::MemoryFriendlyLstm::Config{
            gpuFor(opt.backend), app.spec.timingShape(), obs});
    mf->calibrate(app.data.calibrationSequences(kCalibrationSeqs));
    auto ladder = mf->calibration().ladder();
    for (core::ThresholdSet &set : ladder)
        set.quant = opt.quantMode;
    const std::size_t rung = opt.set ? *opt.set : ladder.size() / 2;
    if (rung >= ladder.size()) {
        std::fprintf(stderr, "error: --set must be 0..%zu\n",
                     ladder.size() - 1);
        return 2;
    }
    mf->setThresholds(
        presetThresholds(opt.plan, ladder[rung], opt.quantMode));
    evalAccuracy(*mf, app);

    fleet::FleetOptions fopts;
    fopts.replicas = opt.replicas;
    fopts.policy = opt.policy;
    fopts.failover = opt.failover;
    fopts.storeDir = opt.storeDir;
    fopts.observer = obs;
    fopts.engine.maxBatch = opt.batch;
    fopts.engine.workers = opt.workers;
    fopts.engine.plan = opt.plan;
    fopts.engine.maxRetries = opt.retries;
    fopts.engine.backendId = opt.backend;
    if (opt.governor) {
        const SchemeCurve curve =
            evaluateScheme(*mf, app, opt.plan, ladder);
        fopts.engine.governorLadder = core::aoToBpaLadder(
            curve.points, app.baselineAccuracy, 2.0);
        fopts.engine.planningSequences =
            app.data.calibrationSequences(kCalibrationSeqs);
    }
    // Two stock tenants exercise the SLO classes: interactive rides
    // the --deadline-ms budget at high priority, batch is best-effort.
    fopts.slos.push_back(
        fleet::SloClass{"interactive", 10, opt.deadlineMs});
    fopts.slos.push_back(fleet::SloClass{"batch", 0, 0.0});

    fleet::Fleet f(*mf, fopts);
    if (opt.chaos)
        f.setChaosPlan(fleet::ChaosPlan::standard(
            opt.chaosSeed, opt.replicas, opt.ticks));

    // Drive loop: the base --requests load spreads evenly over the
    // ticks; chaos flash crowds add their bursts on top.
    const auto seqs = app.data.calibrationSequences(kCalibrationSeqs);
    std::size_t next = 0;
    std::size_t eventsApplied = 0;
    for (std::size_t t = 0; t < opt.ticks; ++t) {
        const fleet::Fleet::TickReport rep = f.tick();
        eventsApplied += rep.applied.size();
        for (const fleet::ChaosEvent &e : rep.applied)
            std::fprintf(stderr, "[fleet] tick %llu: %s -> r%zu\n",
                         static_cast<unsigned long long>(rep.tick),
                         fleet::toString(e.kind), e.replica);
        std::size_t n = opt.requests / opt.ticks +
                        (t < opt.requests % opt.ticks ? 1 : 0);
        n += rep.flashCrowdBurst;
        for (std::size_t k = 0; k < n; ++k) {
            fleet::FleetRequest req;
            req.tokens = seqs[next % seqs.size()];
            req.sessionId = "session-" + std::to_string(next % 8);
            req.tenant = next % 2 == 0 ? "interactive" : "batch";
            f.submit(std::move(req));
            ++next;
        }
    }
    // Quiet ticks let scheduled restarts land so parked work (with
    // failover on) finds a recovered replica before the final drain.
    for (int t = 0; t < 6; ++t)
        f.tick();
    f.drain();
    const fleet::Fleet::Stats st = f.stats();
    const double avail = f.availability();

    std::printf("%s / %s on %s (threshold set %zu)\n", opt.app.c_str(),
                runtime::toString(opt.plan),
                gpuFor(opt.backend).name.c_str(), rung);
    std::printf("fleet: %zu replicas, policy %s, failover %s\n",
                f.replicaCount(), fleet::toString(opt.policy),
                opt.failover ? "on" : "off");
    if (opt.chaos) {
        std::printf("chaos: seed %llu, %zu of %zu events applied over "
                    "%zu ticks (replay: same seed => same plan)\n",
                    static_cast<unsigned long long>(opt.chaosSeed),
                    eventsApplied, f.chaosPlan().events.size(),
                    opt.ticks);
        std::printf("%s", f.chaosPlan().describe().c_str());
    }
    std::printf("submitted %llu, completed %llu, ok %llu, failed %llu "
                "(availability %.2f%%)\n",
                static_cast<unsigned long long>(st.submitted),
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.ok),
                static_cast<unsigned long long>(st.failed),
                avail * 100.0);
    std::printf("failover re-dispatches %llu, hedges %llu (wins %llu), "
                "parked %llu, session failovers %llu\n",
                static_cast<unsigned long long>(st.failovers),
                static_cast<unsigned long long>(st.hedges),
                static_cast<unsigned long long>(st.hedgeWins),
                static_cast<unsigned long long>(st.parked),
                static_cast<unsigned long long>(
                    f.router().sessionFailovers()));
    for (std::size_t i = 0; i < f.replicaCount(); ++i) {
        fleet::Replica &r = f.replica(i);
        const fleet::Replica::Counters &c = r.counters();
        std::printf("  %-4s %-10s kills %llu, restarts %llu "
                    "(cold %llu), heartbeat misses %llu, breaker "
                    "trips %llu\n",
                    r.name().c_str(), fleet::toString(r.state()),
                    static_cast<unsigned long long>(c.kills),
                    static_cast<unsigned long long>(c.restarts),
                    static_cast<unsigned long long>(c.coldRecoveries),
                    static_cast<unsigned long long>(c.heartbeatMisses),
                    static_cast<unsigned long long>(r.breaker().trips));
    }
    f.shutdown();

    const std::uint64_t lost = st.submitted - st.completed;
    if (lost > 0)
        std::fprintf(stderr,
                     "error: %llu request(s) lost without a terminal "
                     "response\n",
                     static_cast<unsigned long long>(lost));
    const int rc = writeObserverOutputs(opt, observer);
    return lost > 0 ? 1 : rc;
}

/** One subcommand: its name on the command line and its handler. */
struct Command
{
    const char *name;
    int (*run)(const Options &);
};

/** Every subcommand except `help`, in usage order. */
constexpr Command kCommands[] = {
    {"list", cmdList},       {"run", cmdRun},         {"sweep", cmdSweep},
    {"mts", cmdMts},         {"serve", cmdServe},     {"fleet", cmdFleet},
    {"profile", cmdProfile}, {"tune", cmdTune},       {"fsck", cmdFsck},
    {"backends", cmdBackends},
};

const Command *
findCommand(const std::string &name)
{
    for (const Command &c : kCommands)
        if (name == c.name)
            return &c;
    return nullptr;
}

void
printUsage(std::FILE *to)
{
    std::fprintf(to, "usage: mflstm_cli <");
    for (const Command &c : kCommands)
        std::fprintf(to, "%s|", c.name);
    std::fprintf(
        to,
        "help> [options]\n"
        "\n"
        "options:\n"
        "  --app NAME         Table II application (default IMDB)\n"
        "  --plan KIND        baseline|inter|intra-sw|intra-hw|"
        "combined|zero-pruning|persistent\n"
        "  --set N            threshold ladder rung (default: AO)\n"
        "  --quant MODE       fp32|int8|int4 weight precision "
        "(default fp32)\n"
        "  --backend NAME     hardware backend from the registry\n"
        "                     (default tx1; list with `mflstm "
        "backends`)\n"
        "  --csv              emit one CSV row instead of the table\n"
        "  --trace-csv FILE   dump the lowered kernel trace as CSV\n"
        "  --trace-out FILE   write a Chrome trace-event JSON timeline\n"
        "  --metrics-out FILE write the metrics registry (see "
        "--metrics-format)\n"
        "  --metrics-format F json (default) | prom for --metrics-out\n"
        "  --help             print this message and exit\n"
        "\n"
        "profile options:\n"
        "  --out FILE         write the attribution report JSON\n"
        "  --baseline FILE    diff against a saved report; regressions\n"
        "                     beyond --tolerance-pct exit 1\n"
        "  --tolerance-pct X  regression threshold, percent "
        "(default 0.1)\n"
        "\n"
        "tune options:\n"
        "  --out FILE         write the tune report JSON\n"
        "  --cache-dir DIR    tuned-plan cache (default "
        "mflstm_model_cache)\n"
        "  --force            ignore (and rewrite) the cached plan\n"
        "  --batch N          batch the plan is tuned for (default 8)\n"
        "\n"
        "serve options (synthetic open-loop workload):\n"
        "  --tuned            serve sched-searched plans per rung\n"
        "  --requests N       requests to submit (default 64)\n"
        "  --batch N          max sequences per batched run (default 8)\n"
        "  --workers N        engine worker threads (default 2)\n"
        "  --arrival-us N     mean inter-arrival gap, microseconds\n"
        "                     (default 200; 0 = all at once)\n"
        "  --deadline-ms X    per-request wall deadline (default none)\n"
        "  --queue-capacity N bound the queue (default 0 = unbounded)\n"
        "  --admission P      reject | drop-oldest | block\n"
        "  --admit-timeout-ms X  producer wait bound for block\n"
        "  --fault-rate X     transient-fault probability per site\n"
        "  --chaos-seed N     fault-injector seed (default 1)\n"
        "  --retries N        retry budget per transient fault\n"
        "  --governor         degrade thresholds AO->BPA under load\n"
        "  --state-dir DIR    persist/restore calibration + engine\n"
        "                     warm state; SIGTERM drains gracefully\n"
        "\n"
        "fleet options (plus the serve knobs above):\n"
        "  --replicas N       engine replicas (default 2)\n"
        "  --policy P         affinity | round-robin | least-loaded\n"
        "  --chaos            run the standard seeded chaos plan\n"
        "  --chaos-seed N     chaos plan seed (default 1; recorded,\n"
        "                     replays bit-identically)\n"
        "  --no-failover      failures are terminal (control arm)\n"
        "  --ticks N          control ticks to drive (default 16)\n"
        "  --store-dir DIR    shared warm-state store (default\n"
        "                     mflstm_fleet_store)\n"
        "  exit 0 = zero lost requests, 1 = requests lost\n"
        "\n"
        "fsck options:\n"
        "  --cache-dir DIR    directory to verify (default "
        "mflstm_model_cache)\n"
        "  --quarantine       rename corrupt files to <name>.corrupt\n"
        "  exit 0 = all artifacts verified, 1 = corruption found\n"
        "\n"
        "backends:\n"
        "  list every registered hardware backend (id, kind, revision,\n"
        "  capability flags) usable with --backend\n");
}

int
usage()
{
    printUsage(stderr);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();

    Options opt;
    opt.command = argv[1];
    if (opt.command == "--help" || opt.command == "-h" ||
        opt.command == "help") {
        printUsage(stdout);
        return 0;
    }
    const Command *command = findCommand(opt.command);
    if (!command) {
        std::fprintf(stderr, "unknown command: %s\n",
                     opt.command.c_str());
        return usage();
    }

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            return 0;
        } else if (arg == "--app") {
            const char *v = next();
            if (!v)
                return usage();
            opt.app = v;
        } else if (arg == "--plan") {
            const char *v = next();
            const auto kind = v ? parsePlan(v) : std::nullopt;
            if (!kind) {
                std::fprintf(stderr, "bad --plan value: %s\n",
                             v ? v : "(missing)");
                return usage();
            }
            if (*kind == runtime::PlanKind::Tuned) {
                std::fprintf(stderr,
                             "--plan tuned is not a preset; run the "
                             "tune subcommand (or serve --tuned)\n");
                return usage();
            }
            opt.plan = *kind;
        } else if (arg == "--set") {
            const char *v = next();
            char *end = nullptr;
            const unsigned long n =
                v ? std::strtoul(v, &end, 10) : 0;
            if (!v || end == v || *end != '\0') {
                std::fprintf(stderr, "bad --set value: %s\n",
                             v ? v : "(missing)");
                return usage();
            }
            opt.set = static_cast<std::size_t>(n);
        } else if (arg == "--quant") {
            const char *v = next();
            const auto mode =
                v ? quant::parseQuantMode(v) : std::nullopt;
            if (!mode) {
                std::fprintf(stderr, "bad --quant value: %s\n",
                             v ? v : "(missing)");
                return usage();
            }
            opt.quantMode = *mode;
        } else if (arg == "--backend") {
            const char *v = next();
            if (!v || !hw::registry().contains(v)) {
                std::string known;
                for (const std::string &n : hw::registry().names())
                    known += (known.empty() ? "" : "|") + n;
                std::fprintf(stderr,
                             "unknown backend: %s (known: %s)\n",
                             v ? v : "(missing)", known.c_str());
                return usage();
            }
            opt.backend = v;
        } else if (arg == "--admission") {
            const char *v = next();
            if (v && std::strcmp(v, "reject") == 0) {
                opt.admission = serve::AdmissionPolicy::RejectNew;
            } else if (v && std::strcmp(v, "drop-oldest") == 0) {
                opt.admission = serve::AdmissionPolicy::DropOldest;
            } else if (v && std::strcmp(v, "block") == 0) {
                opt.admission = serve::AdmissionPolicy::BlockWithTimeout;
            } else {
                std::fprintf(stderr, "bad --admission value: %s\n",
                             v ? v : "(missing)");
                return usage();
            }
        } else if (arg == "--state-dir") {
            const char *v = next();
            if (!v)
                return usage();
            opt.stateDir = v;
        } else if (arg == "--store-dir") {
            const char *v = next();
            if (!v)
                return usage();
            opt.storeDir = v;
        } else if (arg == "--policy") {
            const char *v = next();
            if (v && std::strcmp(v, "affinity") == 0) {
                opt.policy = fleet::RoutingPolicy::SessionAffinity;
            } else if (v && std::strcmp(v, "round-robin") == 0) {
                opt.policy = fleet::RoutingPolicy::RoundRobin;
            } else if (v && std::strcmp(v, "least-loaded") == 0) {
                opt.policy = fleet::RoutingPolicy::LeastLoaded;
            } else {
                std::fprintf(stderr, "bad --policy value: %s\n",
                             v ? v : "(missing)");
                return usage();
            }
        } else if (arg == "--chaos") {
            opt.chaos = true;
        } else if (arg == "--no-failover") {
            opt.failover = false;
        } else if (arg == "--chaos-seed") {
            const char *v = next();
            char *end = nullptr;
            const unsigned long long n =
                v ? std::strtoull(v, &end, 10) : 0;
            if (!v || end == v || *end != '\0') {
                std::fprintf(stderr, "bad --chaos-seed value: %s\n",
                             v ? v : "(missing)");
                return usage();
            }
            opt.chaosSeed = n;
        } else if (arg == "--cache-dir") {
            const char *v = next();
            if (!v)
                return usage();
            opt.cacheDir = v;
        } else if (arg == "--quarantine") {
            opt.quarantineBad = true;
        } else if (arg == "--governor") {
            opt.governor = true;
        } else if (arg == "--tuned") {
            opt.tuned = true;
        } else if (arg == "--force") {
            opt.forceTune = true;
        } else if (arg == "--requests" || arg == "--batch" ||
                   arg == "--workers" || arg == "--arrival-us" ||
                   arg == "--queue-capacity" || arg == "--retries" ||
                   arg == "--replicas" || arg == "--ticks") {
            const char *v = next();
            char *end = nullptr;
            const unsigned long n = v ? std::strtoul(v, &end, 10) : 0;
            if (!v || end == v || *end != '\0') {
                std::fprintf(stderr, "bad %s value: %s\n", arg.c_str(),
                             v ? v : "(missing)");
                return usage();
            }
            if ((arg == "--requests" || arg == "--batch" ||
                 arg == "--workers" || arg == "--replicas" ||
                 arg == "--ticks") &&
                n == 0) {
                std::fprintf(stderr, "%s must be >= 1\n", arg.c_str());
                return usage();
            }
            if (arg == "--requests")
                opt.requests = n;
            else if (arg == "--batch")
                opt.batch = n;
            else if (arg == "--workers")
                opt.workers = n;
            else if (arg == "--queue-capacity")
                opt.queueCapacity = n;
            else if (arg == "--retries")
                opt.retries = static_cast<int>(n);
            else if (arg == "--replicas")
                opt.replicas = n;
            else if (arg == "--ticks")
                opt.ticks = n;
            else
                opt.arrivalUs = n;
        } else if (arg == "--deadline-ms" || arg == "--admit-timeout-ms" ||
                   arg == "--fault-rate") {
            const char *v = next();
            char *end = nullptr;
            const double x = v ? std::strtod(v, &end) : 0.0;
            if (!v || end == v || *end != '\0' || x < 0.0) {
                std::fprintf(stderr, "bad %s value: %s\n", arg.c_str(),
                             v ? v : "(missing)");
                return usage();
            }
            if (arg == "--deadline-ms")
                opt.deadlineMs = x;
            else if (arg == "--admit-timeout-ms")
                opt.admitTimeoutMs = x;
            else
                opt.faultRate = x;
        } else if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--trace-csv") {
            const char *v = next();
            if (!v)
                return usage();
            opt.traceCsv = v;
        } else if (arg == "--trace-out") {
            const char *v = next();
            if (!v)
                return usage();
            opt.traceOut = v;
        } else if (arg == "--metrics-out") {
            const char *v = next();
            if (!v)
                return usage();
            opt.metricsOut = v;
        } else if (arg == "--metrics-format") {
            const char *v = next();
            if (!v || (std::strcmp(v, "json") != 0 &&
                       std::strcmp(v, "prom") != 0)) {
                std::fprintf(stderr, "bad --metrics-format value: %s\n",
                             v ? v : "(missing)");
                return usage();
            }
            opt.metricsFormat = v;
        } else if (arg == "--out") {
            const char *v = next();
            if (!v)
                return usage();
            opt.profileOut = v;
        } else if (arg == "--baseline") {
            const char *v = next();
            if (!v)
                return usage();
            opt.baselinePath = v;
        } else if (arg == "--tolerance-pct") {
            const char *v = next();
            char *end = nullptr;
            const double x = v ? std::strtod(v, &end) : 0.0;
            if (!v || end == v || *end != '\0' || x < 0.0) {
                std::fprintf(stderr, "bad --tolerance-pct value: %s\n",
                             v ? v : "(missing)");
                return usage();
            }
            opt.tolerancePct = x;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return usage();
        }
    }

    try {
        return command->run(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
