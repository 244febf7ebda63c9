/**
 * @file
 * One engine replica under fleet management (DESIGN.md §16): wraps an
 * InferenceEngine with the health-state machine, a per-replica
 * circuit breaker, chaos hooks (kill / brownout / corrupt-restart)
 * and the restore-or-recompute restart path over the shared artifact
 * store.
 *
 * Boot and restart both prefer the store's warm-state artifact (the
 * expensive per-rung planning is skipped); a corrupt or stale
 * artifact is quarantined and the replica cold-rebuilds, then heals
 * the store by re-saving under the single-writer lock.
 *
 * Thread safety: driven from the Fleet's single control path; the
 * wrapped engine's own workers run concurrently as usual.
 */

#ifndef MFLSTM_FLEET_REPLICA_HH
#define MFLSTM_FLEET_REPLICA_HH

#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "core/api.hh"
#include "fleet/types.hh"
#include "io/store.hh"
#include "serve/engine.hh"

namespace mflstm {
namespace fleet {

/** Shared warm-state artifact name inside the fleet store. */
inline constexpr const char *kEngineStateArtifact = "engine_state.bin";

/** Consecutive missed heartbeats that take a live replica Down. */
inline constexpr int kDownAfterMisses = 2;

/**
 * Per-replica circuit breaker: opens after kTripAfter consecutive
 * dispatch failures, holds for kCooldownTicks fleet ticks, then
 * half-opens — one more failure re-trips immediately, one success
 * closes it fully.
 */
struct CircuitBreaker
{
    static constexpr int kTripAfter = 3;
    static constexpr std::uint64_t kCooldownTicks = 2;

    bool open = false;
    int consecutiveFailures = 0;
    std::uint64_t cooldownRemaining = 0;
    std::uint64_t trips = 0;

    void onSuccess()
    {
        consecutiveFailures = 0;
        open = false;
        cooldownRemaining = 0;
    }

    void onFailure()
    {
        if (++consecutiveFailures >= kTripAfter && !open) {
            open = true;
            cooldownRemaining = kCooldownTicks;
            ++trips;
        }
    }

    /** One fleet tick: cooldown expiry half-opens the breaker. */
    void tick()
    {
        if (open && cooldownRemaining > 0 && --cooldownRemaining == 0) {
            open = false;
            // Half-open: the next failure re-trips without needing a
            // fresh streak; the next success closes fully.
            consecutiveFailures = kTripAfter - 1;
        }
    }
};

class Replica
{
  public:
    /**
     * Builds the engine immediately: warm from @p store's
     * engine-state artifact when present and valid, else cold (and
     * the cold boot heals/seeds the store under the write lock).
     * Every engine the replica builds runs @p engine with its
     * observer set to @p obs. @p mf, @p store and @p obs must outlive
     * the replica; @p obs receives the replica's
     * fleet.*{replica=<name>} series.
     */
    Replica(std::size_t index, const core::MemoryFriendlyLstm &mf,
            io::ArtifactStore &store, serve::InferenceEngine::Options engine,
            obs::Observer &obs);

    ~Replica();
    Replica(const Replica &) = delete;
    Replica &operator=(const Replica &) = delete;

    std::size_t index() const { return index_; }
    const std::string &name() const { return name_; }
    ReplicaState state() const { return state_; }
    CircuitBreaker &breaker() { return breaker_; }

    /** The engine exists and has not been kill()ed. */
    bool alive() const;

    std::size_t queueDepth() const;
    ReplicaSnapshot snapshot() const;
    serve::InferenceEngine *engine() { return engine_.get(); }

    /**
     * Dispatch one request. Returns an invalid future (valid() ==
     * false) when the replica cannot accept — engine dead or closed —
     * so the caller can fail over without an exception round trip.
     */
    std::future<serve::Response> submit(serve::Request req);

    // --- chaos hooks -------------------------------------------------
    /**
     * Simulated crash: kill the engine (queued work resolves Failed,
     * see InferenceEngine::kill) and go Down. With @p corrupt_state
     * the next restart first flips a byte in the store's warm-state
     * artifact, forcing the quarantine-and-recompute path.
     */
    void kill(bool corrupt_state);

    /** Simulated brownout: slow every batch by @p ms (0 clears). */
    void setBrownout(double ms);

    /**
     * Restart after a kill: rebuild the engine (warm restore ->
     * quarantine + cold recompute fallback), enter Recovering. No-op
     * while the engine is still alive.
     */
    void restart();

    /**
     * One heartbeat: probe the engine and walk the health-state
     * machine. A dead engine is an immediate miss; a live probe
     * misses when it does not come back Ok.
     */
    void heartbeat();

    struct Counters
    {
        std::uint64_t kills = 0;
        std::uint64_t restarts = 0;
        /// restarts that fell back from warm restore to cold rebuild
        std::uint64_t coldRecoveries = 0;
        std::uint64_t heartbeatMisses = 0;
    };
    /** Read from this replica's fleet.{killed,restart,cold_recovery,
     *  heartbeat_miss}_total{replica=<name>} series. */
    Counters counters() const;

  private:
    /// the replica's labelled series, bound once at construction
    struct Instruments
    {
        Instruments(obs::MetricsRegistry &m, const std::string &name);

        obs::Counter &kills, &restarts, &coldRecoveries,
            &heartbeatMisses, &stateChanges;
        obs::Gauge &state;
    };

    void rebuildEngine();
    void setState(ReplicaState next, const char *why);
    void corruptStoredState();

    std::size_t index_;
    const core::MemoryFriendlyLstm *mf_;
    io::ArtifactStore *store_;
    std::string name_;  ///< "r<index>": metrics label + trace track
    serve::InferenceEngine::Options engineOpts_;
    obs::Observer &obs_;
    const Instruments m_;

    std::unique_ptr<serve::InferenceEngine> engine_;
    ReplicaState state_ = ReplicaState::Healthy;
    CircuitBreaker breaker_;
    bool corruptNextRestart_ = false;
    int missStreak_ = 0;
};

} // namespace fleet
} // namespace mflstm

#endif // MFLSTM_FLEET_REPLICA_HH
