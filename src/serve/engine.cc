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

/** @p opts, once the checks both engine constructors share pass. */
const InferenceEngine::Options &
validated(const InferenceEngine::Options &opts)
{
    if (opts.workers == 0)
        throw std::invalid_argument("InferenceEngine: workers == 0");
    return opts;
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

InferenceEngine::Instruments::Instruments(obs::MetricsRegistry &m,
                                          std::size_t max_batch)
    : requests(m.counter("serve.requests")),
      responses(m.counter("serve.responses")),
      ok(m.counter("serve.ok")),
      shedDeadline(m.counter("serve.shed_deadline")),
      lateCompletions(m.counter("serve.late_completions")),
      deadlineMisses(m.counter("serve.deadline_misses")),
      rejected(m.counter("serve.rejected_capacity")),
      evicted(m.counter("serve.evicted")),
      failed(m.counter("serve.failed")),
      retries(m.counter("serve.retries")),
      faultsInjected(m.counter("serve.faults_injected")),
      workerRestarts(m.counter("serve.worker_restarts")),
      batches(m.counter("serve.batches")),
      timingSims(m.counter("serve.timing_sims")),
      precisionSwitches(m.counter("serve.precision_switch_total")),
      killed(m.counter("serve.killed")),
      latencyMs(m.histogram("serve.latency_ms", serveMsEdges())),
      queueMs(m.histogram("serve.queue_ms", serveMsEdges())),
      batchWaitMs(m.histogram("serve.batch_wait_ms", serveMsEdges())),
      execMs(m.histogram("serve.exec_ms", serveMsEdges())),
      batchSize(m.histogram("serve.batch_size", batchSizeEdges(max_batch))),
      twinRebuildMs(m.histogram("serve.twin_rebuild_ms", serveMsEdges())),
      weightDramBytesPerSeq(m.gauge("serve.weight_dram_bytes_per_seq")),
      rung(m.gauge("serve.rung")), queueDepth(m.gauge("serve.queue_depth"))
{}

InferenceEngine::InferenceEngine(const core::MemoryFriendlyLstm &mf,
                                 const Options &opts, Preamble)
    : opts_(validated(opts)), shape_(mf.config().timingShape),
      task_(mf.runner().model().config().task),
      queue_(QueueOptions{opts.queueCapacity, opts.admission,
                          kAdmitTimeoutMs}),
      batcher_(queue_, opts.maxBatch),
      ownedObs_(opts.observer ? nullptr
                              : std::make_unique<obs::Observer>()),
      obs_(opts.observer ? opts.observer : ownedObs_.get()),
      m_(obs_->metrics(), opts.maxBatch)
{}

InferenceEngine::InferenceEngine(const core::MemoryFriendlyLstm &mf,
                                 const Options &opts)
    : InferenceEngine(mf, opts, Preamble{})
{
    core::TimingOptions topt;
    topt.kind = opts_.plan;
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
    : InferenceEngine(mf, opts, Preamble{})
{
    using io::ArtifactError;
    using io::ErrorKind;

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
    if (warm.plan != opts_.plan)
        throw ArtifactError(
            ErrorKind::Stale,
            "InferenceEngine: warm state was saved under a different "
            "plan kind");
    // A tuned plan is labelled Tuned and a preset never is, so the
    // plans themselves say which tuning mode saved them.
    if (std::any_of(warm.plans.begin(), warm.plans.end(),
                    [this](const runtime::ExecutionPlan &p) {
                        return (p.kind == runtime::PlanKind::Tuned) !=
                               opts_.tunePlans;
                    }))
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
InferenceEngine::finishInit(const core::MemoryFriendlyLstm &mf,
                            std::vector<core::ApproxRunner> base_runners)
{
    if (ladder_.size() > 1)
        governor_ = std::make_unique<AdaptiveThresholdGovernor>(
            ladder_.size(), opts_.governor, obs_);

    executor_ = std::make_unique<runtime::NetworkExecutor>(
        mf.config().gpu, obs_);
    timing_.resize(ladder_.size() * opts_.maxBatch);

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

    // The request is counted under the queue lock, before a worker
    // can pop and resolve it, so serve.responses never runs ahead of
    // serve.requests; a push the closed queue refuses counts nothing.
    std::vector<QueuedRequest> bounced;
    const RequestQueue::PushOutcome outcome = queue_.push(
        std::move(item), &bounced, [this] { m_.requests.add(); });
    if (outcome == RequestQueue::PushOutcome::Closed)
        throw std::runtime_error(
            "InferenceEngine::submit: engine is shut down");

    // Admission control resolves every bounced promise right here with
    // a terminal status: the new item under RejectNew / a block
    // timeout, or the evicted victims under DropOldest.
    for (QueuedRequest &b : bounced) {
        if (outcome == RequestQueue::PushOutcome::Admitted)
            m_.evicted.add();
        resolveUnserved(std::move(b), Status::RejectedCapacity);
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
    m_.killed.add();
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
    s.shape = shape_;
    s.modelWeightsCrc =
        core::modelWeightsCrc(runners_.front().front().model());
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
    const auto count = [](const obs::Counter &c) {
        return static_cast<std::uint64_t>(c.value());
    };
    Stats s;
    // Responses first: each request is counted before its response
    // can be, so this order never reads completed > submitted.
    s.completed = count(m_.responses);
    s.submitted = count(m_.requests);
    s.ok = count(m_.ok);
    s.batches = count(m_.batches);
    s.deadlineMisses = count(m_.deadlineMisses);
    s.shedBeforeRun = count(m_.shedDeadline);
    s.lateCompletions = count(m_.lateCompletions);
    s.rejected = count(m_.rejected);
    s.evicted = count(m_.evicted);
    s.failed = count(m_.failed);
    s.retries = count(m_.retries);
    s.workerRestarts = count(m_.workerRestarts);
    if (governor_) {
        const AdaptiveThresholdGovernor::Stats g = governor_->stats();
        s.governorStepsUp = g.stepsUp;
        s.governorStepsDown = g.stepsDown;
    }
    s.queueHighWater = queue_.highWater();
    const obs::Histogram::Snapshot sizes = m_.batchSize.snapshot();
    s.maxBatchObserved = static_cast<std::size_t>(sizes.max);
    s.meanBatchSize = sizes.count ? sizes.sum /
                                        static_cast<double>(sizes.count)
                                  : 0.0;
    return s;
}

double
InferenceEngine::latencyQuantileMs(double q) const
{
    return m_.latencyMs.quantile(q);
}

void
InferenceEngine::finish(QueuedRequest &item, Response r, Reached reached,
                        std::size_t track)
{
    switch (r.status) {
    case Status::Ok:
        m_.ok.add();
        break;
    case Status::ShedDeadline:
        (reached == Reached::Run ? m_.lateCompletions : m_.shedDeadline)
            .add();
        m_.deadlineMisses.add();
        break;
    case Status::RejectedCapacity:
        m_.rejected.add();
        break;
    case Status::Failed:
        m_.failed.add();
        break;
    }
    m_.responses.add();
    m_.queueMs.observe(r.queueMs);
    if (reached != Reached::Queue)
        m_.batchWaitMs.observe(r.batchWaitMs);
    if (reached == Reached::Run) {
        m_.execMs.observe(r.execMs);
        m_.latencyMs.observe(r.latencyMs);
    }
    if (!ownedObs_)
        recordLifecycle(obs_, static_cast<int>(track), r);
    item.promise.set_value(std::move(r));
}

void
InferenceEngine::resolveUnserved(QueuedRequest item, Status status,
                                 const std::string &error)
{
    Response r;
    r.id = item.id;
    r.status = status;
    r.error = error;
    r.queueMs = r.latencyMs = wallMsSince(item.enqueued);
    finish(item, std::move(r), Reached::Queue, opts_.workers);
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

template <class Body>
std::optional<std::string>
InferenceEngine::withRetries(FaultSite site, int &retries, Body &&body)
{
    FaultInjector *inj = opts_.faultInjector;
    for (;; ++site.attempt) {
        try {
            if (!inj || !inj->shouldFail(site)) {
                body();
                return std::nullopt;
            }
        } catch (const std::exception &e) {
            return std::string(e.what());
        }
        m_.faultsInjected.add();
        if (site.attempt >= kMaxRetries) {
            if (site.kind == FaultSite::Kind::RequestRun)
                return std::string(
                    "transient faults exhausted the retry budget");
            return "injected batch-timing fault (batch " +
                   std::to_string(site.batchOrdinal) + ", attempt " +
                   std::to_string(site.attempt) + ")";
        }
        ++retries;
        m_.retries.add();
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            kRetryBackoffMs * static_cast<double>(1 << site.attempt)));
    }
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
        m_.timingSims.add();
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
            m_.workerRestarts.add();
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
            m_.precisionSwitches.add();
            m_.twinRebuildMs.observe(wallMsSince(t0));
        }
        lastServedQuant_[worker_index] = static_cast<int>(rq);
    }
    const std::uint64_t ordinal =
        batchOrdinal_.fetch_add(1, std::memory_order_relaxed);
    const auto batch_start = std::chrono::steady_clock::now();
    auto ph = obs::Observer::phase(obs_, "serve.batch");
    const auto next = [&batch] {
        QueuedRequest item = std::move(batch.front());
        batch.erase(batch.begin());
        return item;
    };
    const auto batch_response = [&](const QueuedRequest &item) {
        Response r;
        r.id = item.id;
        r.batch = b;
        r.rung = rung;
        r.queueMs = std::chrono::duration<double, std::milli>(
                        batch_start - item.enqueued)
                        .count();
        return r;
    };

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
    // exactly as on a fresh run; an exhausted budget (or any other
    // error) fails the batch.
    runtime::RunReport report;
    int timing_retries = 0;
    const std::optional<std::string> timing_err =
        withRetries(FaultSite{FaultSite::Kind::BatchRun, ordinal, 0, 0},
                    timing_retries,
                    [&] { report = timingRun(rung, b); });
    if (timing_err) {
        while (!batch.empty()) {
            QueuedRequest item = next();
            Response r = batch_response(item);
            r.status = Status::Failed;
            r.error = "batch timing run failed: " + *timing_err;
            r.latencyMs = wallMsSince(item.enqueued);
            // The whole post-queue wait went to the failed timing run.
            r.batchWaitMs = std::max(0.0, r.latencyMs - r.queueMs);
            finish(item, std::move(r), Reached::Batch, worker_index);
        }
        return;
    }

    const double sim_ms = report.result.timeUs / 1e3;
    const double weight_per_seq = report.weightDramBytesPerSequence();
    m_.batches.add();
    m_.batchSize.observe(static_cast<double>(b));
    m_.weightDramBytesPerSeq.set(weight_per_seq);
    m_.rung.set(static_cast<double>(rung));

    // Functional side: per sequence, bit-identical to a solo run at
    // this rung's thresholds. Transient per-request faults retry with
    // backoff; exhausting the budget fails only that request. Items
    // leave the batch as their promises resolve so an exception never
    // strands an already-resolved (or still-pending) future.
    while (!batch.empty()) {
        QueuedRequest item = next();
        // Deadlines can expire while earlier siblings run — shed
        // before spending functional compute.
        if (item.expired(std::chrono::steady_clock::now())) {
            resolveUnserved(std::move(item), Status::ShedDeadline);
            continue;
        }

        Response r = batch_response(item);
        r.simBatchMs = sim_ms;
        r.weightDramBytesPerSeq = weight_per_seq;
        const auto func_start = std::chrono::steady_clock::now();
        r.batchWaitMs = std::chrono::duration<double, std::milli>(
                            func_start - batch_start)
                            .count();

        const std::optional<std::string> run_err = withRetries(
            FaultSite{FaultSite::Kind::RequestRun, ordinal, item.id, 0},
            r.retries, [&] {
                if (task_ == nn::TaskKind::LanguageModel)
                    r.stepLogits = runner.lmLogits(item.request.tokens);
                else
                    r.logits = runner.classify(item.request.tokens);
                r.executed = true;
            });

        r.execMs = wallMsSince(func_start);
        r.latencyMs = wallMsSince(item.enqueued);
        if (run_err) {
            r.status = Status::Failed;
            r.error = *run_err;
        } else if (item.request.deadlineMs > 0.0 &&
                   r.latencyMs > item.request.deadlineMs) {
            // The §10 unification of the old latent bug: an executed
            // request that finished late is a deadline miss by status,
            // not a silent success (outputs stay populated).
            r.status = Status::ShedDeadline;
        } else {
            r.status = Status::Ok;
        }
        finish(item, std::move(r), Reached::Run, worker_index);
    }

    // One governor tick per batch, on queue pressure.
    if (governor_) {
        const std::size_t depth = queue_.size();
        m_.queueDepth.set(static_cast<double>(depth));
        governor_->observe(depth, opts_.workers);
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
