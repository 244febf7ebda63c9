#include "serve/engine.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "core/persist.hh"
#include "sched/persist.hh"
#include "serve/persist.hh"

namespace mflstm {
namespace serve {

namespace {

std::vector<double>
batchSizeEdges(std::size_t max_batch)
{
    std::vector<double> edges;
    edges.reserve(max_batch);
    for (std::size_t b = 1; b <= max_batch; ++b)
        edges.push_back(static_cast<double>(b));
    return edges;
}

double
wallMsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Shared edges for every serve-side millisecond histogram. */
std::vector<double>
serveMsEdges()
{
    return obs::Histogram::exponentialEdges(1e-3, 1e5, 33);
}

/**
 * Emit one request's lifecycle spans (queue → batch-wait → exec →
 * complete) on the serve process track, laid out backwards from the
 * completion instant so the three stages abut. Zero-duration stages
 * (a shed request never executed) are skipped; the zero-length
 * "complete" marker always lands and carries the terminal status.
 * Only a caller-owned observer receives them: a private one is never
 * exported, and its spans would grow with every request served.
 */
void
recordLifecycle(obs::Observer *obs, int track, const Response &r)
{
    obs::SpanTracer &tracer = obs->tracer();
    const double end_us = obs->wallNowUs();
    const std::vector<std::pair<const char *, double>> stages = {
        {"queue", r.queueMs * 1e3},
        {"batch-wait", r.batchWaitMs * 1e3},
        {"exec", r.execMs * 1e3},
    };
    double cursor = end_us;
    for (const auto &s : stages)
        cursor -= s.second;
    for (const auto &s : stages) {
        if (s.second <= 0.0) {
            cursor += s.second;
            continue;
        }
        obs::TraceSpan span;
        span.name = s.first;
        span.category = "request";
        span.pid = obs::SpanTracer::kServePid;
        span.tid = track;
        span.startUs = cursor;
        span.durUs = s.second;
        span.numArgs = {
            {"id", static_cast<double>(r.id)},
            {"batch", static_cast<double>(r.batch)},
            {"rung", static_cast<double>(r.rung)},
            {"retries", static_cast<double>(r.retries)},
        };
        span.strArgs = {{"status", toString(r.status)}};
        tracer.record(std::move(span));
        cursor += s.second;
    }
    obs::TraceSpan done;
    done.name = "complete";
    done.category = "request";
    done.pid = obs::SpanTracer::kServePid;
    done.tid = track;
    done.startUs = end_us;
    done.durUs = 0.0;
    done.numArgs = {{"id", static_cast<double>(r.id)},
                    {"retries", static_cast<double>(r.retries)}};
    done.strArgs = {{"status", toString(r.status)}};
    tracer.record(std::move(done));
}

} // anonymous namespace

InferenceEngine::InferenceEngine(const core::MemoryFriendlyLstm &mf,
                                 const Options &opts)
    : opts_(opts), shape_(mf.config().timingShape),
      task_(mf.runner().model().config().task),
      queue_(QueueOptions{opts.queueCapacity, opts.admission,
                          opts.admitTimeoutMs}),
      batcher_(queue_, opts.maxBatch)
{
    if (opts_.workers == 0)
        throw std::invalid_argument("InferenceEngine: workers == 0");
    if (opts_.maxRetries < 0)
        throw std::invalid_argument("InferenceEngine: maxRetries < 0");

    initObserver();

    core::TimingOptions topt;
    topt.kind = opts_.plan;
    topt.pruneFraction = opts_.pruneFraction;
    topt.observer = obs_;

    // Rung snapshots: plan + base runner per threshold set. Without a
    // ladder the single rung mirrors the facade's active state,
    // planned exactly as the facade would plan it.
    std::vector<core::ApproxRunner> base_runners;
    if (opts_.governorLadder.empty()) {
        ladder_ = {mf.thresholds()};
        plans_.push_back(mf.evaluateTiming(topt).plan);
        base_runners.push_back(mf.runner());
    } else {
        for (const core::ThresholdSet &set : opts_.governorLadder) {
            core::MemoryFriendlyLstm::RungSnapshot snap =
                mf.snapshotRung(set, opts_.planningSequences, topt);
            ladder_.push_back(set);
            plans_.push_back(std::move(snap.plan));
            base_runners.push_back(std::move(snap.runner));
        }
    }

    // Tuned serving (§14): replace each rung's preset plan with the
    // searched one for that rung's statistics and precision. The tuner's
    // dominance gate guarantees the swap never regresses simulated time
    // or DRAM bytes against the preset the rung would otherwise serve.
    if (opts_.tunePlans) {
        if (!mf.runner().calibrated())
            throw std::logic_error(
                "InferenceEngine: Options::tunePlans needs a calibrated "
                "facade (run calibrate() first)");
        const std::uint32_t weights_crc =
            core::modelWeightsCrc(mf.runner().model());
        if (!opts_.tuneCacheDir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(opts_.tuneCacheDir, ec);
        }
        for (std::size_t r = 0; r < ladder_.size(); ++r) {
            sched::TuneRequest treq;
            treq.shape = shape_;
            treq.stats = base_runners[r].stats();
            treq.mts = mf.calibration().mts;
            treq.modelHidden = mf.runner().model().config().hiddenSize;
            treq.quant = ladder_[r].quant;
            treq.pruneFraction = opts_.pruneFraction;
            treq.batch = opts_.maxBatch;
            treq.backendId = opts_.backendId;
            const sched::TuneResult tuned =
                opts_.tuneCacheDir.empty()
                    ? sched::tune(mf.executor(), treq)
                    : sched::tuneCached(
                          mf.executor(), treq, weights_crc,
                          opts_.tuneCacheDir + "/tuned_plan_rung" +
                              std::to_string(r),
                          {}, obs_);
            plans_[r] = tuned.chosen.plan;
        }
    }

    finishInit(mf, std::move(base_runners));
}

InferenceEngine::InferenceEngine(const core::MemoryFriendlyLstm &mf,
                                 const Options &opts,
                                 const EngineWarmState &warm)
    : opts_(opts), shape_(mf.config().timingShape),
      task_(mf.runner().model().config().task),
      queue_(QueueOptions{opts.queueCapacity, opts.admission,
                          opts.admitTimeoutMs}),
      batcher_(queue_, opts.maxBatch)
{
    using io::ArtifactError;
    using io::ErrorKind;

    if (opts_.workers == 0)
        throw std::invalid_argument("InferenceEngine: workers == 0");
    if (opts_.maxRetries < 0)
        throw std::invalid_argument("InferenceEngine: maxRetries < 0");

    initObserver();

    if (warm.ladder.empty() || warm.ladder.size() != warm.plans.size())
        throw ArtifactError(
            ErrorKind::Malformed,
            "InferenceEngine: warm state ladder/plan mismatch");
    if (warm.modelWeightsCrc !=
        core::modelWeightsCrc(mf.runner().model()))
        throw ArtifactError(
            ErrorKind::Stale,
            "InferenceEngine: warm state was saved from a different "
            "model (weights CRC mismatch)");
    if (!(warm.shape == shape_))
        throw ArtifactError(
            ErrorKind::Stale,
            "InferenceEngine: warm state was saved for a different "
            "timing shape");
    if (warm.plan != opts_.plan ||
        warm.pruneFraction != opts_.pruneFraction)
        throw ArtifactError(
            ErrorKind::Stale,
            "InferenceEngine: warm state was saved under different "
            "plan options");
    if (warm.tunedPlans != opts_.tunePlans)
        throw ArtifactError(
            ErrorKind::Stale,
            "InferenceEngine: warm state tuning mode does not match "
            "Options::tunePlans");
    if (warm.backendId != opts_.backendId)
        throw ArtifactError(
            ErrorKind::Stale,
            "InferenceEngine: warm state was saved under backend '" +
                warm.backendId + "' but this engine runs '" +
                opts_.backendId + "'");
    if (!opts_.governorLadder.empty() &&
        !(warm.ladder == opts_.governorLadder))
        throw ArtifactError(
            ErrorKind::Stale,
            "InferenceEngine: warm state ladder does not match "
            "Options::governorLadder");

    const bool needs_calibration = std::any_of(
        warm.ladder.begin(), warm.ladder.end(),
        [](const core::ThresholdSet &s) { return s.alphaInter > 0.0; });
    if (needs_calibration && !mf.runner().calibrated())
        throw std::logic_error(
            "InferenceEngine: warm state uses layer division but the "
            "facade is not calibrated (restore the calibration first)");

    // The whole point of the warm path: adopt the persisted plans and
    // configure runners directly instead of replaying the planning
    // sequences through snapshotRung.
    ladder_ = warm.ladder;
    plans_ = warm.plans;
    std::vector<core::ApproxRunner> base_runners;
    base_runners.reserve(ladder_.size());
    for (const core::ThresholdSet &set : ladder_) {
        core::ApproxRunner runner = mf.runner();
        runner.setThresholds(set.alphaInter, set.alphaIntra);
        base_runners.push_back(std::move(runner));
    }

    finishInit(mf, std::move(base_runners));
}

void
InferenceEngine::initObserver()
{
    if (opts_.observer) {
        obs_ = opts_.observer;
    } else {
        ownedObs_ = std::make_unique<obs::Observer>();
        obs_ = ownedObs_.get();
    }
}

void
InferenceEngine::finishInit(const core::MemoryFriendlyLstm &mf,
                            std::vector<core::ApproxRunner> base_runners)
{
    if (ladder_.size() > 1) {
        AdaptiveThresholdGovernor::Config gcfg = opts_.governor;
        gcfg.rungCount = ladder_.size();
        governor_ =
            std::make_unique<AdaptiveThresholdGovernor>(gcfg, obs_);
    }

    executor_ = std::make_unique<runtime::NetworkExecutor>(
        mf.config().gpu, obs_);
    timing_.resize(ladder_.size() * opts_.maxBatch);

    // Touch the instruments once so quantile queries work even before
    // the first request completes.
    obs_->metrics().histogram("serve.latency_ms", serveMsEdges());
    obs_->metrics().histogram("serve.queue_ms", serveMsEdges());
    obs_->metrics().histogram("serve.batch_wait_ms", serveMsEdges());
    obs_->metrics().histogram("serve.exec_ms", serveMsEdges());
    obs_->metrics().histogram("serve.batch_size",
                              batchSizeEdges(opts_.maxBatch));
    obs_->metrics().histogram("serve.twin_rebuild_ms", serveMsEdges());
    obs_->metrics().counter("serve.precision_switch_total");
    obs_->metrics().counter("serve.timing_sims");

    for (std::size_t w = 0; w < opts_.workers; ++w)
        obs_->tracer().setTrackName(obs::SpanTracer::kServePid,
                                    static_cast<int>(w),
                                    "worker " + std::to_string(w));
    obs_->tracer().setTrackName(obs::SpanTracer::kServePid,
                                static_cast<int>(opts_.workers),
                                "unserved");

    runners_.reserve(opts_.workers);
    for (std::size_t w = 0; w < opts_.workers; ++w)
        runners_.push_back(base_runners);  // private copies per worker
    lastServedQuant_.assign(opts_.workers, -1);

    workers_.reserve(opts_.workers);
    for (std::size_t w = 0; w < opts_.workers; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

InferenceEngine::~InferenceEngine()
{
    shutdown();
}

std::future<Response>
InferenceEngine::submit(Request req)
{
    if (req.tokens.empty())
        throw std::invalid_argument(
            "InferenceEngine::submit: empty token sequence");

    QueuedRequest item;
    item.request = std::move(req);
    item.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    item.seq = nextSeq_.fetch_add(1, std::memory_order_relaxed);
    item.enqueued = std::chrono::steady_clock::now();
    std::future<Response> fut = item.promise.get_future();

    std::vector<QueuedRequest> bounced;
    const RequestQueue::PushOutcome outcome =
        queue_.push(std::move(item), &bounced);
    if (outcome == RequestQueue::PushOutcome::Closed)
        throw std::runtime_error(
            "InferenceEngine::submit: engine is shut down");

    submitted_.fetch_add(1, std::memory_order_relaxed);
    obs_->metrics().counter("serve.requests").add();

    // Admission control resolves every bounced promise right here with
    // a terminal status: the new item under RejectNew / a block
    // timeout, or the evicted victims under DropOldest.
    if (outcome == RequestQueue::PushOutcome::RejectedCapacity) {
        for (QueuedRequest &b : bounced)
            resolveUnserved(std::move(b), Status::RejectedCapacity);
    } else if (!bounced.empty()) {
        for (QueuedRequest &b : bounced) {
            evicted_.fetch_add(1, std::memory_order_relaxed);
            obs_->metrics().counter("serve.evicted").add();
            resolveUnserved(std::move(b), Status::RejectedCapacity);
        }
    }
    return fut;
}

Session
InferenceEngine::session(int priority)
{
    return Session(*this, priority);
}

void
InferenceEngine::shutdown()
{
    queue_.close();
    std::lock_guard<std::mutex> lock(shutdownMu_);
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
}

void
InferenceEngine::kill()
{
    killed_.store(true, std::memory_order_release);
    obs_->metrics().counter("serve.killed").add();
    shutdown();
}

void
InferenceEngine::setBrownoutMs(double ms)
{
    brownoutMs_.store(std::max(ms, 0.0), std::memory_order_relaxed);
    obs_->metrics().gauge("serve.brownout_ms").set(std::max(ms, 0.0));
}

void
InferenceEngine::setGovernorRungFloor(std::size_t rung)
{
    if (!governor_)
        return;
    governor_->setRungFloor(std::min(rung, ladder_.size() - 1));
}

EngineWarmState
InferenceEngine::exportWarmState() const
{
    EngineWarmState s;
    s.plan = opts_.plan;
    s.pruneFraction = opts_.pruneFraction;
    s.shape = shape_;
    s.modelWeightsCrc =
        core::modelWeightsCrc(runners_.front().front().model());
    s.tunedPlans = opts_.tunePlans;
    s.backendId = opts_.backendId;
    s.ladder = ladder_;
    s.plans = plans_;
    return s;
}

void
InferenceEngine::drainAndSaveState(const std::string &path)
{
    shutdown();
    saveEngineState(*this, path);
}

InferenceEngine::Stats
InferenceEngine::stats() const
{
    Stats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.ok = ok_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.deadlineMisses = deadlineMisses_.load(std::memory_order_relaxed);
    s.shedBeforeRun = shedBeforeRun_.load(std::memory_order_relaxed);
    s.lateCompletions =
        lateCompletions_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.evicted = evicted_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.retries = retries_.load(std::memory_order_relaxed);
    s.workerRestarts = workerRestarts_.load(std::memory_order_relaxed);
    if (governor_) {
        const AdaptiveThresholdGovernor::Stats g = governor_->stats();
        s.governorStepsUp = g.stepsUp;
        s.governorStepsDown = g.stepsDown;
    }
    s.queueHighWater = queue_.counters().highWater;
    s.maxBatchObserved =
        maxBatchObserved_.load(std::memory_order_relaxed);
    const std::uint64_t seqs =
        batchSeqSum_.load(std::memory_order_relaxed);
    s.meanBatchSize = s.batches ? static_cast<double>(seqs) /
                                      static_cast<double>(s.batches)
                                : 0.0;
    return s;
}

double
InferenceEngine::latencyQuantileMs(double q) const
{
    const obs::Histogram *h =
        obs_->metrics().findHistogram("serve.latency_ms");
    return h ? h->quantile(q) : 0.0;
}

void
InferenceEngine::resolveUnserved(QueuedRequest item, Status status,
                                 const std::string &error)
{
    obs::MetricsRegistry &m = obs_->metrics();
    Response r;
    r.id = item.id;
    r.status = status;
    r.error = error;
    r.queueMs = r.latencyMs = wallMsSince(item.enqueued);
    switch (status) {
    case Status::ShedDeadline:
        shedBeforeRun_.fetch_add(1, std::memory_order_relaxed);
        deadlineMisses_.fetch_add(1, std::memory_order_relaxed);
        m.counter("serve.shed_deadline").add();
        m.counter("serve.deadline_misses").add();
        break;
    case Status::RejectedCapacity:
        rejected_.fetch_add(1, std::memory_order_relaxed);
        m.counter("serve.rejected_capacity").add();
        break;
    case Status::Failed:
        failed_.fetch_add(1, std::memory_order_relaxed);
        m.counter("serve.failed").add();
        break;
    case Status::Ok:
        break;  // unreachable: Ok always comes from serveBatch
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    m.counter("serve.responses").add();
    m.histogram("serve.queue_ms", serveMsEdges()).observe(r.queueMs);
    if (!ownedObs_)
        recordLifecycle(obs_, static_cast<int>(opts_.workers), r);
    item.promise.set_value(std::move(r));
}

std::vector<QueuedRequest>
InferenceEngine::shedExpired(std::vector<QueuedRequest> batch)
{
    const auto now = std::chrono::steady_clock::now();
    std::vector<QueuedRequest> live;
    live.reserve(batch.size());
    for (QueuedRequest &item : batch) {
        if (item.expired(now))
            resolveUnserved(std::move(item), Status::ShedDeadline);
        else
            live.push_back(std::move(item));
    }
    return live;
}

void
InferenceEngine::backoff(int attempt) const
{
    if (opts_.retryBackoffMs <= 0.0)
        return;
    const double ms =
        opts_.retryBackoffMs * static_cast<double>(1 << std::min(attempt, 10));
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(ms));
}

runtime::RunReport
InferenceEngine::timingRun(std::size_t rung, std::size_t b)
{
    // The lock is held across a miss's simulation so that two workers
    // missing the same slot simulate it once; a throwing run leaves the
    // slot empty for the next attempt.
    std::lock_guard<std::mutex> lock(timingMu_);
    std::optional<runtime::RunReport> &slot =
        timing_.at(rung * opts_.maxBatch + (b - 1));
    if (!slot) {
        slot = executor_->run(
            runtime::RunRequest::network(shape_, plans_[rung], b));
        obs_->metrics().counter("serve.timing_sims").add();
    }
    return *slot;
}

void
InferenceEngine::workerLoop(std::size_t worker_index)
{
    for (;;) {
        std::vector<QueuedRequest> batch = batcher_.nextBatch();
        if (batch.empty())
            return;  // closed and drained

        // Deadline shedding (§10): expired requests resolve
        // ShedDeadline before they waste a batch slot, and the freed
        // slots are refilled so the batch still amortises weights.
        std::vector<QueuedRequest> live = shedExpired(std::move(batch));
        while (live.size() < opts_.maxBatch) {
            std::vector<QueuedRequest> extra;
            if (queue_.drain(extra, opts_.maxBatch - live.size()) == 0)
                break;
            extra = shedExpired(std::move(extra));
            for (QueuedRequest &e : extra)
                live.push_back(std::move(e));
        }
        if (live.empty())
            continue;

        // A killed replica flushes instead of executing: the packed
        // batch resolves Failed so the fleet router can re-dispatch.
        if (killed_.load(std::memory_order_acquire)) {
            for (QueuedRequest &item : live)
                resolveUnserved(std::move(item), Status::Failed,
                                kEngineKilledError);
            continue;
        }

        try {
            serveBatch(live, worker_index);
        } catch (...) {
            // Graceful worker restart: an unexpected batch error never
            // kills the loop. serveBatch erases each item as its
            // promise resolves, so whatever is still in the batch here
            // is exactly the unresolved remainder — flush it Failed
            // instead of stranding the futures.
            workerRestarts_.fetch_add(1, std::memory_order_relaxed);
            obs_->metrics().counter("serve.worker_restarts").add();
            for (QueuedRequest &item : live)
                resolveUnserved(std::move(item), Status::Failed,
                                "batch aborted by an unexpected error");
        }
    }
}

void
InferenceEngine::serveBatch(std::vector<QueuedRequest> &batch,
                            std::size_t worker_index)
{
    const std::size_t b = batch.size();
    const std::size_t rung = governor_ ? governor_->rung() : 0;
    core::ApproxRunner &runner = runners_[worker_index][rung];

    // Governor precision switches are not free: crossing a quant
    // boundary re-pays this runner's twin rebuild (model copy +
    // fake-quant + relevance contexts) and the wall cost lands in
    // serve.twin_rebuild_ms so cross-backend serve comparisons see it.
    // Dropping to fp32 only discards the twin, which is why those
    // switches record near-zero.
    {
        const quant::QuantMode rq = runner.quantMode();
        const int prev = lastServedQuant_[worker_index];
        if (prev >= 0 && prev != static_cast<int>(rq)) {
            const auto t0 = std::chrono::steady_clock::now();
            runner.setQuantMode(quant::QuantMode::Fp32);
            runner.setQuantMode(rq);
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            obs_->metrics()
                .counter("serve.precision_switch_total")
                .add();
            obs_->metrics()
                .histogram("serve.twin_rebuild_ms", serveMsEdges())
                .observe(ms);
        }
        lastServedQuant_[worker_index] = static_cast<int>(rq);
    }
    const std::uint64_t ordinal =
        batchOrdinal_.fetch_add(1, std::memory_order_relaxed);
    const auto batch_start = std::chrono::steady_clock::now();
    auto ph = obs::Observer::phase(obs_, "serve.batch");
    obs::MetricsRegistry &m = obs_->metrics();
    FaultInjector *inj = opts_.faultInjector;

    // Simulated brownout (fleet chaos): a degraded replica serves
    // every batch slower, which the health checks then observe.
    const double brownout =
        brownoutMs_.load(std::memory_order_relaxed);
    if (brownout > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(brownout));

    // Timing side: one batched lowering, weights charged once, looked
    // up in the timing table. The injector is consulted before every
    // lookup, hit or miss, so a transient fault is retried with backoff
    // exactly as on a fresh run; an exhausted budget (or a
    // non-transient error) fails the batch.
    runtime::RunReport report;
    bool timing_ok = false;
    std::string timing_err;
    for (int attempt = 0; attempt <= opts_.maxRetries; ++attempt) {
        try {
            if (inj && inj->shouldFail(FaultSite{FaultSite::Kind::BatchRun,
                                                 ordinal, 0, attempt})) {
                m.counter("serve.faults_injected").add();
                throw TransientFault(
                    "injected batch-timing fault (batch " +
                    std::to_string(ordinal) + ", attempt " +
                    std::to_string(attempt) + ")");
            }
            report = timingRun(rung, b);
            timing_ok = true;
            break;
        } catch (const TransientFault &e) {
            timing_err = e.what();
            if (attempt < opts_.maxRetries) {
                retries_.fetch_add(1, std::memory_order_relaxed);
                m.counter("serve.retries").add();
                backoff(attempt);
            }
        } catch (const std::exception &e) {
            timing_err = e.what();  // non-transient: no retry
            break;
        }
    }
    if (!timing_ok) {
        while (!batch.empty()) {
            QueuedRequest item = std::move(batch.front());
            batch.erase(batch.begin());
            Response r;
            r.id = item.id;
            r.status = Status::Failed;
            r.error = "batch timing run failed: " + timing_err;
            r.batch = b;
            r.rung = rung;
            r.queueMs = std::chrono::duration<double, std::milli>(
                            batch_start - item.enqueued)
                            .count();
            r.latencyMs = wallMsSince(item.enqueued);
            // The whole post-queue wait went to the failed timing run.
            r.batchWaitMs = std::max(0.0, r.latencyMs - r.queueMs);
            failed_.fetch_add(1, std::memory_order_relaxed);
            m.counter("serve.failed").add();
            completed_.fetch_add(1, std::memory_order_relaxed);
            m.counter("serve.responses").add();
            m.histogram("serve.queue_ms", serveMsEdges())
                .observe(r.queueMs);
            m.histogram("serve.batch_wait_ms", serveMsEdges())
                .observe(r.batchWaitMs);
            if (!ownedObs_)
                recordLifecycle(obs_, static_cast<int>(worker_index), r);
            item.promise.set_value(std::move(r));
        }
        return;
    }

    const double sim_ms = report.result.timeUs / 1e3;
    const double weight_per_seq = report.weightDramBytesPerSequence();

    batches_.fetch_add(1, std::memory_order_relaxed);
    batchSeqSum_.fetch_add(b, std::memory_order_relaxed);
    std::size_t seen = maxBatchObserved_.load(std::memory_order_relaxed);
    while (b > seen &&
           !maxBatchObserved_.compare_exchange_weak(
               seen, b, std::memory_order_relaxed))
        ;
    m.counter("serve.batches").add();
    m.histogram("serve.batch_size", batchSizeEdges(opts_.maxBatch))
        .observe(static_cast<double>(b));
    m.gauge("serve.weight_dram_bytes_per_seq").set(weight_per_seq);
    m.gauge("serve.rung").set(static_cast<double>(rung));

    // Functional side: per sequence, bit-identical to a solo run at
    // this rung's thresholds. Transient per-request faults retry with
    // backoff; exhausting the budget fails only that request. Items
    // leave the batch as their promises resolve so an exception never
    // strands an already-resolved (or still-pending) future.
    while (!batch.empty()) {
        QueuedRequest item = std::move(batch.front());
        batch.erase(batch.begin());
        // Deadlines can expire while earlier siblings run — shed
        // before spending functional compute.
        if (item.expired(std::chrono::steady_clock::now())) {
            resolveUnserved(std::move(item), Status::ShedDeadline);
            continue;
        }

        Response r;
        r.id = item.id;
        r.batch = b;
        r.rung = rung;
        r.simBatchMs = sim_ms;
        r.weightDramBytesPerSeq = weight_per_seq;
        r.queueMs = std::chrono::duration<double, std::milli>(
                        batch_start - item.enqueued)
                        .count();
        const auto func_start = std::chrono::steady_clock::now();
        r.batchWaitMs = std::chrono::duration<double, std::milli>(
                            func_start - batch_start)
                            .count();

        bool run_failed = false;
        for (int attempt = 0; attempt <= opts_.maxRetries; ++attempt) {
            if (inj &&
                inj->shouldFail(FaultSite{FaultSite::Kind::RequestRun,
                                          ordinal, item.id, attempt})) {
                m.counter("serve.faults_injected").add();
                if (attempt == opts_.maxRetries) {
                    run_failed = true;
                    r.error = "transient faults exhausted the retry "
                              "budget";
                    break;
                }
                r.retries = attempt + 1;
                retries_.fetch_add(1, std::memory_order_relaxed);
                m.counter("serve.retries").add();
                backoff(attempt);
                continue;
            }
            try {
                if (task_ == nn::TaskKind::LanguageModel)
                    r.stepLogits = runner.lmLogits(item.request.tokens);
                else
                    r.logits = runner.classify(item.request.tokens);
                r.executed = true;
            } catch (const std::exception &e) {
                run_failed = true;
                r.error = e.what();
            }
            break;
        }

        r.execMs = wallMsSince(func_start);
        r.latencyMs = wallMsSince(item.enqueued);
        if (run_failed) {
            r.status = Status::Failed;
            failed_.fetch_add(1, std::memory_order_relaxed);
            m.counter("serve.failed").add();
        } else if (item.request.deadlineMs > 0.0 &&
                   r.latencyMs > item.request.deadlineMs) {
            // The §10 unification of the old latent bug: an executed
            // request that finished late is a deadline miss by status,
            // not a silent success (outputs stay populated).
            r.status = Status::ShedDeadline;
            lateCompletions_.fetch_add(1, std::memory_order_relaxed);
            deadlineMisses_.fetch_add(1, std::memory_order_relaxed);
            m.counter("serve.late_completions").add();
            m.counter("serve.deadline_misses").add();
        } else {
            r.status = Status::Ok;
            ok_.fetch_add(1, std::memory_order_relaxed);
        }

        m.histogram("serve.latency_ms", serveMsEdges())
            .observe(r.latencyMs);
        m.histogram("serve.queue_ms", serveMsEdges()).observe(r.queueMs);
        m.histogram("serve.batch_wait_ms", serveMsEdges())
            .observe(r.batchWaitMs);
        m.histogram("serve.exec_ms", serveMsEdges()).observe(r.execMs);
        completed_.fetch_add(1, std::memory_order_relaxed);
        m.counter("serve.responses").add();
        if (!ownedObs_)
            recordLifecycle(obs_, static_cast<int>(worker_index), r);
        item.promise.set_value(std::move(r));
    }

    // One governor tick per batch: queue pressure + cumulative p95.
    if (governor_) {
        m.gauge("serve.queue_depth")
            .set(static_cast<double>(queue_.size()));
        governor_->observe(queue_.size(), opts_.workers,
                           latencyQuantileMs(0.95));
    }
}

std::future<Response>
Session::infer(std::vector<std::int32_t> tokens, double deadline_ms)
{
    Request req;
    req.tokens = std::move(tokens);
    req.priority = priority_;
    req.deadlineMs = deadline_ms;
    return engine_->submit(std::move(req));
}

} // namespace serve
} // namespace mflstm
