/**
 * @file
 * Open-loop serving workloads (serve-mr, serve-ptb). One process, three
 * threads: this generator thread plus the engine's two workers. After
 * the timed set-up and an untimed warm-up, each repetition runs three
 * phases back to back on the same engine, each drained before the next
 * starts:
 *
 *   light  Poisson arrivals at ServeProfile::lightRps for 0.3 of the
 *          repetition's budget;
 *   heavy  the same at heavyRps;
 *   burst  twice the heavy phase's arrivals, all due at once, which
 *          measures the saturated throughput while the backlog drains.
 *
 * Every request in a phase carries a distinct token sequence from a
 * seed derived from --seed, so no cache keyed on tokens can hit.
 * Latency is timed from each request's due time: generator lateness
 * plus the engine's submit-to-completion Response::latencyMs.
 */

#include <algorithm>
#include <array>
#include <cstring>
#include <future>
#include <map>
#include <set>

#include "serve/engine.hh"
#include "sysbench/loadgen.hh"
#include "sysbench/stats.hh"
#include "sysbench/workloads.hh"

namespace mflstm {
namespace sysbench {

namespace {

using Tokens = std::vector<std::int32_t>;

enum class Phase { Light, Heavy, Burst };
constexpr Phase kPhases[] = {Phase::Light, Phase::Heavy, Phase::Burst};
constexpr const char *kPhaseNames[] = {"light", "heavy", "burst"};

/** Every 16th response of a phase is checked against a solo runner. */
constexpr std::size_t kCheckStride = 16;
/** Batches and inputs of a phase replayed per layer in the traced run. */
constexpr std::size_t kReplays = 64;
/** Upper bound on the warm-up, seconds (1 s in a smoke run). */
constexpr double kWarmUpS = 5.0;

/** @p n distinct token sequences of @p spec's task, drawn from @p seed. */
std::vector<Tokens>
distinctInputs(const workloads::BenchmarkSpec &spec, std::size_t n,
               std::uint64_t seed)
{
    std::vector<Tokens> out;
    std::set<Tokens> seen;
    for (std::uint64_t round = 0; out.size() < n; ++round) {
        workloads::BenchmarkSpec s = spec;
        s.seed = deriveSeed(seed, "inputs" + std::to_string(round));
        const workloads::TaskData d = workloads::makeTask(s, n - out.size(), 0);
        std::vector<Tokens> fresh;
        if (d.isLm) {
            fresh = d.lm.train;
        } else {
            for (const nn::Sample &x : d.cls.train)
                fresh.push_back(x.tokens);
        }
        for (Tokens &t : fresh)
            if (seen.insert(t).second)
                out.push_back(std::move(t));
    }
    return out;
}

bool
bitIdentical(const tensor::Vector &a, const tensor::Vector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct PhaseResult
{
    std::vector<double> latencyMs;  ///< from the due time
    std::vector<double> serviceMs;  ///< batch wait + own execution
    double lateMsSum = 0.0;
    double queueMsSum = 0.0;
    double batchWaitMsSum = 0.0;
    double execMsSum = 0.0;
    double latencyMsSum = 0.0;
    std::size_t notOk = 0;
    std::size_t withinLimit = 0;
    std::size_t queueHighWater = 0;
    std::uint64_t batches = 0;
    /// batch size of each batch (responses of size b / b of them)
    std::vector<std::size_t> batchList;
    std::size_t distinctBatchSizes = 0;
    double drainS = 0.0;  ///< first due time to last completion
};

/**
 * Submit @p inputs at @p due_ns (offsets from the phase start), wait for
 * every response, and check every kCheckStride-th one against @p solo
 * and a fresh simulation of its batch. When @p flip_logit is set
 * (test-only), the next compared logit is corrupted and the flag
 * cleared, so the check must fail.
 */
PhaseResult
runPhase(serve::InferenceEngine &engine, const core::MemoryFriendlyLstm &mf,
         core::ApproxRunner &solo, const std::vector<Tokens> &inputs,
         const std::vector<std::int64_t> &due_ns, const ServeProfile &profile,
         bool &flip_logit, Report &rep, Tracer &tracer)
{
    const std::size_t n = inputs.size();
    std::vector<serve::Request> requests(n);
    for (std::size_t i = 0; i < n; ++i)
        requests[i].tokens = inputs[i];
    std::vector<std::future<serve::Response>> futures(n);
    std::vector<Clock::time_point> submitted(n);

    PhaseResult out;
    const std::uint64_t batches_before = engine.stats().batches;
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < n; ++i) {
        waitUntil(start + std::chrono::nanoseconds(due_ns[i]));
        submitted[i] = Clock::now();
        futures[i] = engine.submit(std::move(requests[i]));
        out.queueHighWater = std::max(out.queueHighWater, engine.queueDepth());
    }

    std::map<std::size_t, std::size_t> per_size;
    std::map<std::size_t, double> sim_ms_by_batch;
    Clock::time_point last_done = start;
    out.latencyMs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        serve::Response r = futures[i].get();
        const Clock::time_point due =
            start + std::chrono::nanoseconds(due_ns[i]);
        const double late_ms =
            std::chrono::duration<double, std::milli>(submitted[i] - due)
                .count();
        const double lat = late_ms + r.latencyMs;
        const Clock::time_point done =
            submitted[i] + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   r.latencyMs));
        last_done = std::max(last_done, done);
        out.latencyMs.push_back(lat);
        out.serviceMs.push_back(r.batchWaitMs + r.execMs);
        out.lateMsSum += late_ms;
        out.queueMsSum += r.queueMs;
        out.batchWaitMsSum += r.batchWaitMs;
        out.execMsSum += r.execMs;
        out.latencyMsSum += lat;
        const bool ok = r.status == serve::Status::Ok;
        out.notOk += ok ? 0 : 1;
        out.withinLimit += ok && lat <= profile.limitMs ? 1 : 0;
        ++per_size[r.batch];

        if (tracer.enabled()) {
            const double t_due = tracer.toUs(due);
            const double t_sub = tracer.toUs(submitted[i]);
            const std::uint64_t id = i + 1;
            const std::uint64_t req = tracer.add(
                "serve.request", Layer::Serve, t_due, tracer.toUs(done), 0,
                id);
            double t = t_sub;
            tracer.add("serve.generator_late", Layer::Serve, t_due, t_sub,
                       req, id);
            tracer.add("serve.queue", Layer::Serve, t, t + r.queueMs * 1e3,
                       req, id);
            t += r.queueMs * 1e3;
            tracer.add("serve.batch_wait", Layer::Serve, t,
                       t + r.batchWaitMs * 1e3, req, id);
            t += r.batchWaitMs * 1e3;
            tracer.add("core.exec", Layer::Core, t, t + r.execMs * 1e3, req,
                       id, 1.0);
        }

        if (i % kCheckStride != 0)
            continue;
        const std::string what = std::string(profile.app) + " request " +
                                 std::to_string(i);
        if (!rep.check(ok && r.executed, what + " served Ok"))
            continue;
        if (flip_logit) {
            tensor::Vector &v = r.logits.size() ? r.logits : r.stepLogits[0];
            v[0] += 1.0f;
            flip_logit = false;
        }
        bool same = true;
        if (mf.runner().model().config().task == nn::TaskKind::LanguageModel) {
            const std::vector<tensor::Vector> ref = solo.lmLogits(inputs[i]);
            same = ref.size() == r.stepLogits.size();
            for (std::size_t s = 0; same && s < ref.size(); ++s)
                same = bitIdentical(ref[s], r.stepLogits[s]);
        } else {
            same = bitIdentical(solo.classify(inputs[i]), r.logits);
        }
        rep.check(same, what + " logits bit-identical to a solo runner");
        auto [it, fresh] = sim_ms_by_batch.try_emplace(r.batch, 0.0);
        if (fresh)
            it->second = mf.executor()
                             .run(runtime::RunRequest::network(
                                 mf.config().timingShape, engine.plan(),
                                 r.batch))
                             .result.timeUs /
                         1e3;
        rep.check(r.simBatchMs == it->second,
                  what + " simBatchMs equals a fresh run of its batch");
    }
    rep.operations(n, out.notOk);

    out.batches = engine.stats().batches - batches_before;
    for (const auto &[b, count] : per_size)
        out.batchList.insert(out.batchList.end(), b ? count / b : 0, b);
    out.distinctBatchSizes = per_size.size();
    out.drainS = std::chrono::duration<double>(last_done - start).count();
    return out;
}

/** Per-layer replay of a served phase: its batches and its inputs. */
void
replayPhase(const PhaseResult &res, const serve::InferenceEngine &engine,
            const core::MemoryFriendlyLstm &mf, core::ApproxRunner &solo,
            const std::vector<Tokens> &inputs, Report &rep, Tracer &tracer,
            LayerTimes &lt)
{
    const bool lm =
        mf.runner().model().config().task == nn::TaskKind::LanguageModel;
    const std::size_t nb = res.batchList.size();
    for (std::size_t k = 0; k < std::min(nb, kReplays); ++k) {
        const std::size_t b = res.batchList[k * nb / std::min(nb, kReplays)];
        rep.check(replayRun(mf.config().gpu, mf.config().timingShape,
                            engine.plan(), b, true, tracer, lt),
                  "serve replay: lower + simulate reproduce the run");
    }
    const std::size_t ni = inputs.size();
    for (std::size_t k = 0; k < std::min(ni, kReplays); ++k) {
        const Tokens &t = inputs[k * ni / std::min(ni, kReplays)];
        const Clock::time_point t0 = Clock::now();
        {
            auto s = tracer.scope("core.forward", Layer::Core);
            s.setItems(1.0);
            if (lm)
                solo.lmLogits(t);
            else
                solo.classify(t);
        }
        lt.forwardUs += 1e3 * msSince(t0);
        lt.forwardSeqs += 1.0;
    }
}

/** The served stack: the app, its calibrated facade and the engine. */
struct Server
{
    App app;
    std::unique_ptr<core::MemoryFriendlyLstm> mf;
    std::unique_ptr<serve::InferenceEngine> engine;
};

Server
setUp(const Options &opts, const workloads::BenchmarkSpec &spec,
      Tracer &tracer, LayerTimes &lt)
{
    Server s;
    s.app = loadApp(opts.cacheDir, spec, tracer, lt);
    s.mf = makeCalibrated(s.app, "tx1", tracer, lt);
    const auto ladder = s.mf->calibration().ladder();
    s.mf->setThresholds(ladder[ladder.size() / 2]);
    {
        // Populates the division/skip statistics the served plan is
        // projected from.
        const Clock::time_point f0 = Clock::now();
        auto sp = tracer.scope("core.stats_pass", Layer::Core);
        sp.setItems(static_cast<double>(kTestSamples));
        evalAccuracy(s.mf->runner(), s.app.data);
        lt.forwardUs += 1e3 * msSince(f0);
        lt.forwardSeqs += static_cast<double>(kTestSamples);
    }
    serve::InferenceEngine::Options eo;
    eo.maxBatch = 8;
    eo.workers = 2;
    eo.plan = runtime::PlanKind::Combined;
    eo.backendId = "tx1";
    auto sp = tracer.scope("serve.engine_ctor", Layer::Serve);
    s.engine = std::make_unique<serve::InferenceEngine>(*s.mf, eo);
    return s;
}

/**
 * Serve bursts of distinct requests until the engine reaches its steady
 * state, or until kWarmUpS pass. The engine records every batch's simulated
 * kernel timeline in its observer until the span buffer is full; while
 * it fills, batches pay for heap growth that a long-running server has
 * long since paid, and latency swings with it.
 */
void
warmUp(Server &s, const workloads::BenchmarkSpec &spec, const Options &opts,
       Report &rep)
{
    const double limit_s = opts.smoke ? 1.0 : kWarmUpS;
    constexpr std::size_t kRound = 1024;
    const Clock::time_point t0 = Clock::now();
    std::size_t served = 0, not_ok = 0;
    for (std::uint64_t round = 0;
         s.engine->observer().tracer().droppedSpans() == 0 &&
         msSince(t0) < limit_s * 1e3;
         ++round) {
        std::vector<std::future<serve::Response>> futures;
        for (Tokens &t : distinctInputs(
                 spec, kRound,
                 deriveSeed(opts.seed, "warmup" + std::to_string(round))))
            futures.push_back(s.engine->submit({std::move(t)}));
        for (auto &f : futures)
            not_ok += f.get().status == serve::Status::Ok ? 0 : 1;
        served += futures.size();
    }
    rep.operations(served, not_ok);
    std::fprintf(stderr, "  warm-up: %zu requests in %.2f s\n", served,
                 msSince(t0) / 1e3);
}

/** Requests per second from the first due time to the last completion. */
double
drainRate(const PhaseResult &ph)
{
    return static_cast<double>(ph.latencyMs.size()) / ph.drainS;
}

double
sharePct(double part, double whole)
{
    return whole > 0 ? 100.0 * part / whole : 0.0;
}

} // anonymous namespace

void
runServe(const Options &opts, const ServeProfile &profile, Report &rep,
         Tracer &tracer)
{
    const workloads::BenchmarkSpec &spec =
        workloads::benchmarkByName(profile.app);
    Tracer off(false);
    LayerTimes lt, untraced_lt;

    // Set-up is repeated for setup_s; the last server is the one served.
    std::vector<double> setup_s;
    Server server;
    while (opts.moreSetUps(setup_s)) {
        // Tear down the previous stack users-first: the engine and the
        // facade hold references into the model.
        server.engine.reset();
        server.mf.reset();
        const Clock::time_point t0 = Clock::now();
        tracer.setSetup(true);
        server = setUp(opts, spec, opts.trace ? tracer : off,
                       opts.trace ? lt : untraced_lt);
        tracer.setSetup(false);
        setup_s.push_back(msSince(t0) / 1e3);
    }
    warmUp(server, spec, opts, rep);
    const core::MemoryFriendlyLstm &mf = *server.mf;
    serve::InferenceEngine &engine = *server.engine;
    core::ApproxRunner solo = mf.runner();
    bool flip_logit = opts.flipLogit;

    // The repetitions share the budget: the light and heavy phases take
    // 0.3 of a repetition each, and the burst, twice the heavy phase's
    // arrivals at once, drains in about the rest. Traced run: repetition
    // 0 is the untraced overhead reference, and repetition 1 is traced
    // and replayed per layer.
    const std::size_t reps = opts.trace ? 2 : opts.smoke ? 1 : 5;
    const double phase_s = 0.3 * opts.seconds / static_cast<double>(reps);
    std::vector<std::array<PhaseResult, 3>> results;
    for (std::size_t r = 0; r < reps; ++r) {
        const bool traced = opts.trace && r == 1;
        Tracer &tr = traced ? tracer : off;
        const std::string tag = std::string(profile.app) + "/rep" +
                                std::to_string(r) + "/";
        std::array<PhaseResult, 3> &res = results.emplace_back();
        for (std::size_t p = 0; p < 3; ++p) {
            // Inputs and arrival times are generated before the phase.
            std::vector<std::int64_t> due =
                kPhases[p] == Phase::Burst
                    ? std::vector<std::int64_t>(
                          static_cast<std::size_t>(2.0 * profile.heavyRps *
                                                   phase_s),
                          0)
                    : poissonSchedule(kPhases[p] == Phase::Light
                                          ? profile.lightRps
                                          : profile.heavyRps,
                                      phase_s,
                                      deriveSeed(opts.seed, tag + kPhaseNames[p]));
            const std::vector<Tokens> inputs = distinctInputs(
                spec, due.size(),
                deriveSeed(opts.seed, tag + kPhaseNames[p] + "/tokens"));
            res[p] = runPhase(engine, mf, solo, inputs, due, profile, flip_logit,
                              rep, tr);
            if (traced)
                replayPhase(res[p], engine, mf, solo, inputs, rep, tr, lt);
        }
        std::fprintf(stderr,
                     "  rep %zu: light p50 %.3f p90 %.3f ms, heavy p50 %.3f "
                     "p90 %.3f ms, burst %.0f/s, service p50 %.3f ms\n",
                     r, percentile(res[0].latencyMs, 0.5),
                     percentile(res[0].latencyMs, 0.9),
                     percentile(res[1].latencyMs, 0.5),
                     percentile(res[1].latencyMs, 0.9),
                     drainRate(res[2]), percentile(res[0].serviceMs, 0.5));
    }
    engine.shutdown();

    if (!opts.trace) {
        std::vector<double> burst_rates;
        for (const auto &res : results)
            burst_rates.push_back(drainRate(res[2]));
        const runtime::RunReport served = mf.executor().run(
            runtime::RunRequest::network(mf.config().timingShape,
                                         engine.plan(), 1));
        rep.metric("setup_s", median(setup_s), "s");
        rep.metric("throughput_per_s", median(burst_rates), "1/s");
        rep.metric("peak_rss_mb", peakRssMb(), "MB");
        rep.metric("sim_speedup", runtime::speedup(mf.baseline(), served),
                   "x");
        rep.metric("sim_energy_saving_pct",
                   runtime::energySavingPct(mf.baseline(), served), "%");
        for (std::size_t p = 0; p < 3; ++p) {
            std::vector<double> all;
            for (const auto &res : results)
                all.insert(all.end(), res[p].latencyMs.begin(),
                           res[p].latencyMs.end());
            const Summary sm = summarize(all);
            std::fprintf(stderr,
                         "  %s latency from due: n=%zu p50 %.3f p90 %.3f "
                         "p99 %.3f ms; highest supported p%g = %.3f ms\n",
                         kPhaseNames[p], sm.n, sm.p50, sm.p90, sm.p99,
                         100.0 * sm.topQuantile, sm.topValue);
        }
        return;
    }

    reportLayerMetrics(rep, lt, tracer);
    rep.metric("client.latency_p50_ms",
               percentile(results[0][0].latencyMs, 0.5), "ms");
    rep.metric("client.latency_p90_ms",
               percentile(results[0][1].latencyMs, 0.9), "ms");
    const std::array<PhaseResult, 3> &last = results.back();
    rep.metric("trace.overhead_pct",
               sharePct(percentile(last[0].latencyMs, 0.5),
                        percentile(results[0][0].latencyMs, 0.5)) -
                   100.0,
               "%");
    double samples = 0.0, not_ok = 0.0;
    for (std::size_t p = 0; p < 3; ++p) {
        const PhaseResult &ph = last[p];
        const std::string name = kPhaseNames[p];
        samples += static_cast<double>(ph.latencyMs.size());
        not_ok += static_cast<double>(ph.notOk);
        rep.metric("serve.batch_size.mean." + name,
                   ph.batches ? static_cast<double>(ph.latencyMs.size()) /
                                    static_cast<double>(ph.batches)
                              : 0.0,
                   "count");
        if (kPhases[p] != Phase::Light)
            rep.metric("serve.queue_high_water." + name,
                       static_cast<double>(ph.queueHighWater), "count");
        if (kPhases[p] == Phase::Heavy)
            rep.metric("serve.within_limit_frac." + name,
                       static_cast<double>(ph.withinLimit) /
                           static_cast<double>(ph.latencyMs.size()),
                       "frac");
        if (kPhases[p] == Phase::Burst)
            continue;
        rep.metric("serve.timing_repeat_frac." + name,
                   ph.batches ? 1.0 - static_cast<double>(ph.distinctBatchSizes) /
                                          static_cast<double>(ph.batches)
                              : 0.0,
                   "frac");
        rep.metric("serve.queue_pct." + name,
                   sharePct(ph.queueMsSum, ph.latencyMsSum), "%");
        rep.metric("serve.batch_wait_pct." + name,
                   sharePct(ph.batchWaitMsSum, ph.latencyMsSum), "%");
        rep.metric("serve.exec_pct." + name,
                   sharePct(ph.execMsSum, ph.latencyMsSum), "%");
        rep.metric("serve.gen_late_pct." + name,
                   sharePct(ph.lateMsSum, ph.latencyMsSum), "%");
    }
    rep.metric("serve.samples", samples, "count");
    rep.metric("serve.not_ok", not_ok, "count");
}

} // namespace sysbench
} // namespace mflstm
