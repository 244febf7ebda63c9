/**
 * @file
 * Serving-layer study (DESIGN.md §9): cross-sequence batching as the
 * serving-time extension of the paper's weight-reuse principle. Sweeps
 * the batch dimension 1..8 on one app and reports how the simulated
 * weight-matrix DRAM traffic per sequence is amortised (must fall
 * monotonically), then drives the InferenceEngine under a burst load
 * and reports the realised batch sizes and latency percentiles.
 *
 * Overload section (DESIGN.md §10): the same burst is replayed twice —
 * once pinned at the AO threshold set, once with the adaptive governor
 * free to walk the AO->BPA ladder — and the realised p95 latencies are
 * compared. Per-rung functional outputs are verified bit-identical to
 * a solo runner at that rung's thresholds (the governor only trades
 * accuracy-class, never correctness of the active rung).
 */

#include <cstdio>
#include <vector>

#include "harness.hh"
#include "serve/engine.hh"

int
main()
{
    using namespace mflstm;
    using namespace mflstm::bench;

    constexpr std::size_t kMaxBatch = 8;

    const AppContext app = makeApp(workloads::benchmarkByName("IMDB"));
    auto mf = makeCalibrated(app);
    const auto ladder = mf->calibration().ladder();
    mf->setThresholds(ladder[ladder.size() / 2]);
    evalAccuracy(*mf, app);  // populate stats for plan projection

    const core::TimingOutcome combined =
        mf->evaluateTiming({runtime::PlanKind::Combined});

    std::printf("Cross-sequence batching on %s (combined scheme, %s)\n",
                app.spec.name.c_str(),
                mf->executor().config().name.c_str());
    rule('=');
    std::printf("%6s %16s %14s %14s %12s\n", "batch", "weight MB/seq",
                "DRAM MB total", "batch time ms", "ms/sequence");
    rule();

    BenchReport rep("serve_batching");
    rep.config("app", app.spec.name);
    rep.config("max_batch", std::to_string(kMaxBatch));

    double prev = 0.0;
    bool monotone = true;
    for (std::size_t b = 1; b <= kMaxBatch; ++b) {
        const runtime::RunReport rep_b =
            mf->executor().run(runtime::RunRequest::network(
                mf->config().timingShape, combined.plan, b));
        const double per_seq = rep_b.weightDramBytesPerSequence();
        if (b > 1 && per_seq >= prev)
            monotone = false;
        prev = per_seq;
        std::printf("%6zu %16.3f %14.3f %14.2f %12.2f\n", b,
                    per_seq / 1e6, rep_b.result.dramBytes / 1e6,
                    rep_b.result.timeUs / 1e3,
                    rep_b.result.timeUs / 1e3 / static_cast<double>(b));
        rep.metric("weight_mb_per_seq.batch" + std::to_string(b),
                   per_seq / 1e6);
    }
    rule();
    std::printf("weight DRAM/sequence monotonically decreasing 1..%zu: "
                "%s\n\n",
                kMaxBatch, monotone ? "yes" : "NO (regression!)");

    // Burst load through the engine: everything queued at once, so the
    // batcher fills batches to the bound after the first drain.
    serve::InferenceEngine::Options eopts;
    eopts.maxBatch = kMaxBatch;
    eopts.workers = 2;
    eopts.plan = runtime::PlanKind::Combined;
    serve::InferenceEngine engine(*mf, eopts);
    serve::Session session = engine.session();

    const auto seqs = app.data.calibrationSequences(kCalibrationSeqs);
    std::vector<std::future<serve::Response>> futures;
    const std::size_t kRequests = 64;
    for (std::size_t i = 0; i < kRequests; ++i)
        futures.push_back(session.infer(seqs[i % seqs.size()]));
    for (auto &f : futures)
        f.get();
    engine.shutdown();

    const serve::InferenceEngine::Stats st = engine.stats();
    std::printf("engine burst: %zu requests, %llu batches, mean batch "
                "%.2f, max %zu\n",
                kRequests, static_cast<unsigned long long>(st.batches),
                st.meanBatchSize, st.maxBatchObserved);
    std::printf("wall latency p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n",
                engine.latencyQuantileMs(0.50),
                engine.latencyQuantileMs(0.90),
                engine.latencyQuantileMs(0.99));

    // --- Overload: fixed AO vs adaptive AO->BPA governor (§10) ------
    const SchemeCurve curve =
        evaluateScheme(*mf, app, runtime::PlanKind::Combined, ladder);
    const std::size_t ao =
        core::selectAo(curve.points, app.baselineAccuracy, 2.0);
    const std::size_t bpa = core::selectBpa(curve.points);
    const std::vector<core::ThresholdSet> governor_ladder =
        core::aoToBpaLadder(curve.points, app.baselineAccuracy, 2.0);
    const auto planning = app.data.calibrationSequences(kCalibrationSeqs);

    std::printf("\nOverload: fixed AO (set %zu) vs governor "
                "(AO set %zu -> BPA set %zu, %zu rungs)\n",
                ao, ao, bpa, governor_ladder.size());
    rule('=');

    const std::size_t kOverloadRequests = 96;  // ~3x what a worker
                                               // retires per drain
    auto overloadRun = [&](bool adaptive) {
        serve::InferenceEngine::Options o;
        o.maxBatch = kMaxBatch;
        o.workers = 1;  // single consumer: queue pressure builds
        o.plan = runtime::PlanKind::Combined;
        o.governorLadder = adaptive
                               ? governor_ladder
                               : std::vector<core::ThresholdSet>{
                                     governor_ladder.front()};
        o.planningSequences = planning;
        o.governor.highQueuePerWorker = 8.0;
        o.governor.dwellTicks = 2;
        serve::InferenceEngine e(*mf, o);
        serve::Session s = e.session();
        std::vector<std::future<serve::Response>> fs;
        for (std::size_t i = 0; i < kOverloadRequests; ++i)
            fs.push_back(s.infer(seqs[i % seqs.size()]));
        for (auto &f : fs)
            f.get();
        const double p95 = e.latencyQuantileMs(0.95);
        const auto est = e.stats();
        std::printf("%-10s p50 %8.3f ms  p95 %8.3f ms  steps up %llu "
                    "down %llu  final rung %zu\n",
                    adaptive ? "governor" : "fixed-AO",
                    e.latencyQuantileMs(0.50), p95,
                    static_cast<unsigned long long>(est.governorStepsUp),
                    static_cast<unsigned long long>(
                        est.governorStepsDown),
                    e.activeRung());
        return p95;
    };

    const double fixed_p95 = overloadRun(false);
    const double adaptive_p95 = overloadRun(true);
    rule();
    if (governor_ladder.size() < 2) {
        std::printf("governor p95 vs fixed AO: ladder has one rung "
                    "(AO == BPA) — nothing to degrade to\n");
    } else {
        std::printf("governor p95 vs fixed AO: %.3f vs %.3f ms "
                    "(%.1f%% %s)\n",
                    adaptive_p95, fixed_p95,
                    100.0 * (fixed_p95 - adaptive_p95) /
                        (fixed_p95 > 0.0 ? fixed_p95 : 1.0),
                    adaptive_p95 <= fixed_p95 ? "lower" : "HIGHER");
    }

    // --- Per-rung bit-identity: batched == solo at each rung --------
    bool rungs_identical = true;
    {
        serve::InferenceEngine::Options o;
        o.maxBatch = 4;
        o.workers = 2;
        o.plan = runtime::PlanKind::Combined;
        o.governorLadder = governor_ladder;
        o.planningSequences = planning;
        serve::InferenceEngine probe(*mf, o);
        for (std::size_t r = 0; r < probe.ladder().size(); ++r) {
            core::ApproxRunner solo = mf->runner();
            solo.setThresholds(probe.ladder()[r].alphaInter,
                               probe.ladder()[r].alphaIntra);
            // Rung runners are snapshots of the same calibration; a
            // fresh engine pinned at this rung must match solo exactly.
            serve::InferenceEngine::Options po = o;
            po.governorLadder = {probe.ladder()[r]};
            serve::InferenceEngine pinned(*mf, po);
            serve::Session ps = pinned.session();
            std::vector<std::future<serve::Response>> fs;
            for (std::size_t i = 0; i < 8; ++i)
                fs.push_back(ps.infer(seqs[i % seqs.size()]));
            for (std::size_t i = 0; i < fs.size(); ++i) {
                const serve::Response resp = fs[i].get();
                const bool same =
                    resp.status == serve::Status::Ok &&
                    resp.logits ==
                        solo.classify(seqs[i % seqs.size()]);
                if (!same)
                    rungs_identical = false;
            }
        }
    }
    std::printf("per-rung batched outputs bit-identical to solo: %s\n",
                rungs_identical ? "yes" : "NO (regression!)");

    // p95 deltas are wall-clock and thus noisy on shared CI machines:
    // report them, but gate the exit code on the two structural
    // invariants only. The report mirrors that: only the structural
    // booleans and the simulated per-sequence traffic are recorded
    // (wall-clock percentiles would make every bench_diff run noisy).
    rep.metric("monotone_weight_amortisation",
               monotone ? 1.0 : 0.0);
    rep.metric("rungs_bit_identical", rungs_identical ? 1.0 : 0.0);
    rep.write();
    return monotone && rungs_identical ? 0 : 1;
}
