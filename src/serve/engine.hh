/**
 * @file
 * Batched inference engine (DESIGN.md §9-§10). Owns a calibrated
 * model + executor pair and serves concurrent requests:
 *
 *   submit() / Session::infer()  ->  RequestQueue  ->  DynamicBatcher
 *       ->  worker threads  ->  per-request Response futures
 *
 * Each worker packs up to Options::maxBatch queued sequences into one
 * *batched tissue* run: the functional outputs are computed per
 * sequence (bit-identical to serving each request alone), while the
 * timing side lowers the network once with the batch dimension, so the
 * simulator charges every recurrent weight matrix's DRAM traffic once
 * per batched kernel instead of once per sequence. That timing run is
 * a pure function of (rung plan, batch size), so the engine simulates
 * each pair once, on its first batch, and serves every later batch of
 * the same pair from a rungs × maxBatch timing table.
 *
 * Overload control (§10): the queue is optionally bounded with a
 * configurable admission policy; queued requests whose deadline has
 * already passed are shed before they waste a batch slot; a
 * FaultInjector can force transient failures that are retried with
 * exponential backoff; and an AdaptiveThresholdGovernor walks the
 * active ThresholdSet along an AO→BPA ladder under pressure. Every
 * future resolves with exactly one terminal Status — the engine never
 * completes a promise twice, never leaks one, and never surfaces an
 * exception through a future.
 *
 * Thread safety: submit() is safe from any thread; workers record
 * through the (thread-safe) obs sinks; each worker owns a private copy
 * of the calibrated ApproxRunner per ladder rung, so functional runs
 * never share mutable state; the timing table is guarded by one mutex.
 * The model, observer and fault injector (when supplied) must outlive
 * the engine.
 */

#ifndef MFLSTM_SERVE_ENGINE_HH
#define MFLSTM_SERVE_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/api.hh"
#include "serve/batcher.hh"
#include "serve/fault.hh"
#include "serve/governor.hh"
#include "serve/queue.hh"
#include "serve/request.hh"

namespace mflstm {
namespace serve {

class Session;

/** Error string on futures resolved Failed by InferenceEngine::kill(). */
inline constexpr const char *kEngineKilledError = "engine killed";

/**
 * Everything a warm restart needs to rebuild an engine without
 * re-running the expensive per-rung snapshots (plan building + planning
 * sequence replay): the plan/ladder pair plus a fingerprint tying the
 * state to the exact model and options it was computed for. Persisted
 * via serve/persist.hh.
 */
struct EngineWarmState
{
    runtime::PlanKind plan = runtime::PlanKind::Combined;
    /// hw registry backend id the plans were built under
    std::string backendId;
    double pruneFraction = 0.37;
    runtime::NetworkShape shape;
    /// core::modelWeightsCrc of the model the state was computed on
    std::uint32_t modelWeightsCrc = 0;
    /// whether the saved plans came from the sched tuner (Options::
    /// tunePlans); a mismatch with the restarting engine is Stale
    bool tunedPlans = false;
    std::vector<core::ThresholdSet> ladder;
    std::vector<runtime::ExecutionPlan> plans;
};

class InferenceEngine
{
  public:
    struct Options
    {
        /// sequences packed per batched tissue run (>= 1)
        std::size_t maxBatch = 8;
        /// worker threads driving batches concurrently (>= 1)
        std::size_t workers = 2;
        /// scheme simulated for the timing side of every batch
        runtime::PlanKind plan = runtime::PlanKind::Combined;
        /// forwarded to plan building (ZeroPruning only)
        double pruneFraction = 0.37;
        /**
         * hw registry id of the backend this engine simulates on
         * (DESIGN.md §17). Recorded in tuned-plan fingerprints and the
         * warm-state artifact, so a cache or warm state built under one
         * backend is rejected as Stale under another. "" = unspecified.
         */
        std::string backendId;
        /**
         * Replace every rung's preset plan with a sched-searched one
         * (DESIGN.md §14): after the normal rung snapshots, the engine
         * runs sched::tune per rung at that rung's quant mode and
         * serves the dominating plan — never worse than the preset on
         * simulated time or DRAM bytes. Requires a calibrated facade.
         */
        bool tunePlans = false;
        /**
         * With tunePlans, a directory for tuned-plan artifacts
         * (tuned_plan_rung<N>): hits skip the search, corrupt files
         * are quarantined and re-tuned. Empty: tune in-memory only.
         */
        std::string tuneCacheDir;
        /**
         * Observability sink (latency histograms, batch spans, sim
         * counters, per-request lifecycle spans). nullptr: the engine
         * owns a private Observer so latency percentiles still work; it
         * records no lifecycle spans, which would grow with every
         * request served and which nothing exports.
         */
        obs::Observer *observer = nullptr;

        // --- admission control (§10) ---
        /// bound on queued requests; 0 = unbounded
        std::size_t queueCapacity = 0;
        AdmissionPolicy admission = AdmissionPolicy::RejectNew;
        /// producer wait bound for BlockWithTimeout, wall ms
        double admitTimeoutMs = 5.0;

        // --- fault tolerance (§10) ---
        /// optional injector consulted at the batch-timing and
        /// per-request sites; nullptr disables injection
        FaultInjector *faultInjector = nullptr;
        /// extra attempts after a transient fault (total = 1 + retries)
        int maxRetries = 2;
        /// base backoff before a retry, doubled per attempt, wall ms
        double retryBackoffMs = 0.2;

        // --- adaptive threshold governor (§10) ---
        /**
         * AO→BPA degradation ladder (rung 0 = most accurate). Empty:
         * the engine serves at the facade's active thresholds/plan,
         * exactly as before. With >= 2 rungs the engine snapshots a
         * plan + per-worker runner per rung (via snapshotRung, driven
         * by planningSequences) and runs a governor over them.
         */
        std::vector<core::ThresholdSet> governorLadder;
        /// sequences replayed per rung to measure the division/skip
        /// statistics its plan projects (required with a ladder)
        std::vector<std::vector<std::int32_t>> planningSequences;
        /// pressure thresholds + hysteresis (rungCount is overwritten)
        AdaptiveThresholdGovernor::Config governor;
    };

    /** Aggregate serving statistics (monotonic, thread-safe reads). */
    struct Stats
    {
        std::uint64_t submitted = 0;
        /// futures resolved with any terminal status
        std::uint64_t completed = 0;
        /// subset of completed that resolved Status::Ok
        std::uint64_t ok = 0;
        std::uint64_t batches = 0;
        /// ShedDeadline resolutions (shedBeforeRun + lateCompletions)
        std::uint64_t deadlineMisses = 0;
        /// shed from the queue/batch without execution
        std::uint64_t shedBeforeRun = 0;
        /// executed but finished past the deadline
        std::uint64_t lateCompletions = 0;
        /// RejectedCapacity resolutions (admission turned them away)
        std::uint64_t rejected = 0;
        /// subset of rejected evicted from the queue by DropOldest
        std::uint64_t evicted = 0;
        /// Status::Failed resolutions (retry budget exhausted)
        std::uint64_t failed = 0;
        /// transient-fault retries performed (both sites)
        std::uint64_t retries = 0;
        /// worker loops that survived an unexpected batch error
        std::uint64_t workerRestarts = 0;
        std::uint64_t governorStepsUp = 0;
        std::uint64_t governorStepsDown = 0;
        /// deepest queue depth ever observed
        std::size_t queueHighWater = 0;
        std::size_t maxBatchObserved = 0;
        double meanBatchSize = 0.0;
    };

    /**
     * Snapshot @p mf (plan, thresholds, calibration) into a serving
     * engine and start the workers. Without a governor ladder the
     * execution plan is built exactly as MemoryFriendlyLstm::
     * evaluateTiming would for Options::plan, so run an accuracy
     * evaluation through mf.runner() first when serving a
     * statistics-driven scheme; with a ladder each rung is snapshot
     * via mf.snapshotRung over Options::planningSequences.
     *
     * @throws std::logic_error via evaluateTiming when Options::plan
     *         needs calibration that has not run.
     * @throws std::invalid_argument on workers == 0, or a governor
     *         ladder without planning sequences.
     */
    InferenceEngine(const core::MemoryFriendlyLstm &mf,
                    const Options &opts);

    /**
     * Warm restart: rebuild the engine from persisted @p warm state
     * instead of re-snapshotting every rung. @p mf must hold the same
     * model (weights CRC), timing shape and calibration the state was
     * saved from; responses are then bit-identical to the engine that
     * saved it.
     *
     * @throws io::ArtifactError(ErrorKind::Stale) when @p warm belongs
     *         to a different model, shape or plan configuration;
     *         ErrorKind::Malformed on an inconsistent state.
     * @throws std::logic_error when the state needs layer division but
     *         @p mf is not calibrated.
     */
    InferenceEngine(const core::MemoryFriendlyLstm &mf,
                    const Options &opts, const EngineWarmState &warm);

    /** Drains submitted work, then joins the workers. */
    ~InferenceEngine();

    InferenceEngine(const InferenceEngine &) = delete;
    InferenceEngine &operator=(const InferenceEngine &) = delete;

    /**
     * Enqueue one request; the future completes when a worker finishes
     * its batch — or immediately with Status::RejectedCapacity when
     * admission control turns it away. Safe from any thread. Every
     * returned future resolves with a value (a terminal Status), never
     * an exception.
     *
     * @throws std::invalid_argument on an empty token sequence.
     * @throws std::runtime_error after shutdown().
     */
    std::future<Response> submit(Request req);

    /** A lightweight submit handle with a fixed priority. */
    Session session(int priority = 0);

    /**
     * Stop accepting requests, finish everything already queued, join
     * the workers. Idempotent; the destructor calls it.
     *
     * A partially packed batch a worker already pulled from the
     * DynamicBatcher is flushed, never stranded: every accepted
     * request still resolves with a terminal Status.
     */
    void shutdown();

    /**
     * Simulated replica crash (fleet layer, DESIGN.md §16): stop
     * admissions immediately and resolve everything still queued or
     * packed into an unserved batch with Status::Failed
     * (kEngineKilledError) instead of executing it. The batch whose
     * timing run is already in flight finishes (execution is pure, so
     * its responses stay valid). Idempotent; joins the workers.
     */
    void kill();

    /** True once kill() has been called. */
    bool killed() const
    {
        return killed_.load(std::memory_order_acquire);
    }

    /**
     * Simulated brownout (fleet chaos): every subsequent batch sleeps
     * this long before its timing run, inflating wall latency the way
     * a thermally throttled / contended replica would. 0 clears it.
     */
    void setBrownoutMs(double ms);
    double brownoutMs() const
    {
        return brownoutMs_.load(std::memory_order_relaxed);
    }

    /**
     * Fleet governor hook: forbid the threshold governor from serving
     * below @p rung (clamped to the ladder). The governor converges
     * one rung per observe() tick — it never skips a rung — and
     * relaxes back down only when the floor is lowered again. No-op
     * without a governor ladder.
     */
    void setGovernorRungFloor(std::size_t rung);

    /** The serialisable warm-restart state of this engine. */
    EngineWarmState exportWarmState() const;

    /**
     * Graceful drain: stop admissions, finish everything already
     * queued, join the workers, then persist the warm-restart state to
     * @p path atomically. Idempotent on the drain half (delegates to
     * shutdown()). @throws io::ArtifactError when the write fails —
     * after the drain completed.
     */
    void drainAndSaveState(const std::string &path);

    Stats stats() const;

    /**
     * Wall-latency quantile (ms) over every completed request, from
     * the observer's "serve.latency_ms" histogram. 0 when none.
     */
    double latencyQuantileMs(double q) const;

    /** The execution plan of ladder rung @p rung (0 without a ladder). */
    const runtime::ExecutionPlan &planAt(std::size_t rung) const
    {
        return plans_.at(rung);
    }
    /** The base-rung execution plan (rung 0). */
    const runtime::ExecutionPlan &plan() const { return plans_.front(); }
    /** The threshold sets serveable by this engine (>= 1 entries). */
    const std::vector<core::ThresholdSet> &ladder() const
    {
        return ladder_;
    }
    /** The governor's current rung (0 without a governor). */
    std::size_t activeRung() const
    {
        return governor_ ? governor_->rung() : 0;
    }
    std::size_t queueDepth() const { return queue_.size(); }

    const Options &options() const { return opts_; }
    obs::Observer &observer() { return *obs_; }

  private:
    void initObserver();
    /// shared tail of both constructors: governor, executor, empty
    /// timing table, instruments, per-worker runner copies, workers
    void finishInit(const core::MemoryFriendlyLstm &mf,
                    std::vector<core::ApproxRunner> base_runners);
    void workerLoop(std::size_t worker_index);
    /// Serves @p batch, erasing each item as its promise resolves, so
    /// a caller catching an exception can flush the leftovers.
    void serveBatch(std::vector<QueuedRequest> &batch,
                    std::size_t worker_index);
    /// complete @p item without execution; counts per @p status
    void resolveUnserved(QueuedRequest item, Status status,
                         const std::string &error = {});
    /// shed expired items from @p batch, resolving their futures
    std::vector<QueuedRequest>
    shedExpired(std::vector<QueuedRequest> batch);
    void backoff(int attempt) const;
    /// the timing run of plans_[rung] at batch @p b: simulated on the
    /// first call for that pair, copied from the table afterwards
    runtime::RunReport timingRun(std::size_t rung, std::size_t b);

    Options opts_;
    runtime::NetworkShape shape_;
    nn::TaskKind task_;

    std::unique_ptr<obs::Observer> ownedObs_;
    obs::Observer *obs_ = nullptr;

    std::unique_ptr<runtime::NetworkExecutor> executor_;
    /// the threshold set of each rung (size >= 1; single entry
    /// mirrors the facade's active thresholds when no ladder is given)
    std::vector<core::ThresholdSet> ladder_;
    /// one execution plan per rung (index-aligned with ladder_)
    std::vector<runtime::ExecutionPlan> plans_;
    /**
     * Timing table: slot rung * maxBatch + (b - 1) holds the RunReport
     * of plans_[rung] at batch b once a batch of that shape has run.
     * Shape and backend are fixed per engine, so the slot is exact;
     * its size bounds the executor runs over the engine's lifetime.
     */
    std::vector<std::optional<runtime::RunReport>> timing_;
    std::mutex timingMu_;
    /// runners_[worker][rung]: private calibrated runner copies
    std::vector<std::vector<core::ApproxRunner>> runners_;
    /**
     * Last quant mode each worker served a batch at (underlying enum
     * value; -1 before the worker's first batch). Only its own worker
     * thread touches an entry. Crossing a precision boundary re-pays
     * that runner's twin rebuild (model copy + fake-quant + relevance
     * contexts) so cross-backend serve comparisons account for the
     * governor's switch cost — counted in serve.precision_switch_total
     * and timed into serve.twin_rebuild_ms.
     */
    std::vector<int> lastServedQuant_;
    std::unique_ptr<AdaptiveThresholdGovernor> governor_;

    RequestQueue queue_;
    DynamicBatcher batcher_;
    std::vector<std::thread> workers_;
    std::mutex shutdownMu_;

    std::atomic<std::uint64_t> nextId_{1};
    std::atomic<std::uint64_t> nextSeq_{0};
    std::atomic<std::uint64_t> batchOrdinal_{0};
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> ok_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> batchSeqSum_{0};
    std::atomic<std::uint64_t> deadlineMisses_{0};
    std::atomic<std::uint64_t> shedBeforeRun_{0};
    std::atomic<std::uint64_t> lateCompletions_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> evicted_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> retries_{0};
    std::atomic<std::uint64_t> workerRestarts_{0};
    std::atomic<std::size_t> maxBatchObserved_{0};
    std::atomic<bool> killed_{false};
    std::atomic<double> brownoutMs_{0.0};
};

/**
 * Client handle bound to one engine: carries a default priority so a
 * latency-sensitive caller tags every request once. Copyable; the
 * engine must outlive every session.
 */
class Session
{
  public:
    /** Submit tokens with this session's priority. */
    std::future<Response> infer(std::vector<std::int32_t> tokens,
                                double deadline_ms = 0.0);

    int priority() const { return priority_; }

  private:
    friend class InferenceEngine;
    Session(InferenceEngine &engine, int priority)
        : engine_(&engine), priority_(priority)
    {}

    InferenceEngine *engine_;
    int priority_;
};

} // namespace serve
} // namespace mflstm

#endif // MFLSTM_SERVE_ENGINE_HH
