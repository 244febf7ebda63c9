/**
 * @file
 * Fault-tolerant fleet serving (DESIGN.md §16): N InferenceEngine
 * replicas over a shared model-artifact store, fronted by a Router
 * with session affinity and per-tenant SLO classes, driven by a
 * deterministic ChaosPlan.
 *
 * Control flow is tick-based: the driver submits FleetRequests
 * between ticks, and each tick() applies due chaos events, scheduled
 * restarts and brownout expiries, heartbeats every replica through
 * the health-state machine, advances the circuit breakers,
 * redistributes the AO->BPA governor ladder over the survivors, and
 * pumps the pending set. The pump is where robustness lives:
 *
 *  - failover: a request that came back Failed / RejectedCapacity
 *    (e.g. stranded on a killed replica) is re-dispatched to another
 *    eligible replica while attempts remain — idempotent by
 *    construction, re-simulation is pure (fleet.failover_total);
 *  - hedging: a request pending on a Degraded replica past
 *    hedgeAfterMs gets a secondary dispatch; the first Ok wins and
 *    the loser is discarded (fleet.hedge_total);
 *  - parking: with failover on and no eligible replica, the request
 *    waits and is re-dispatched when one recovers, so an accepted
 *    request is never silently dropped.
 *
 * Every accepted request reaches exactly one terminal response, counted
 * in the fleet.* series that stats() reads: drain() pumps until the
 * pending set is empty (engines resolve all futures terminally, so
 * this converges), and shutdown() drains before stopping the replicas.
 *
 * Thread safety: submit/tick/pump/drain are driven from one control
 * thread; the engines' worker pools run concurrently underneath.
 */

#ifndef MFLSTM_FLEET_FLEET_HH
#define MFLSTM_FLEET_FLEET_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/chaos.hh"
#include "fleet/replica.hh"
#include "fleet/router.hh"
#include "fleet/types.hh"
#include "io/store.hh"

namespace mflstm {
namespace fleet {

struct FleetOptions
{
    std::size_t replicas = 2;
    RoutingPolicy policy = RoutingPolicy::SessionAffinity;
    std::vector<SloClass> slos;

    /// master switch for the robustness machinery: failover
    /// re-dispatch, hedging and parking. Off = a failure is terminal.
    bool failover = true;
    /// dispatch attempts per request (1 = no failover re-dispatch)
    int maxAttempts = 3;
    /// hedge a request pending on a Degraded replica after this long
    /// (wall ms); 0 disables hedging
    double hedgeAfterMs = 0.0;
    /// a killed replica restarts this many ticks after going down
    std::uint64_t restartAfterTicks = 2;

    // --- health checks ---
    int degradedAfter = 1;
    int downAfter = 2;
    int recoverAfter = 1;
    double heartbeatSloMs = 0.0;
    std::vector<std::int32_t> probeTokens = {1, 2, 3};

    // --- circuit breaker ---
    int breakerTripAfter = 3;
    std::uint64_t breakerCooldownTicks = 2;

    /// shared model-artifact store directory (required)
    std::string storeDir;
    /// template for every replica's engine (observer is overridden)
    serve::InferenceEngine::Options engine;
    /// shared sink; nullptr = the fleet owns a private Observer
    obs::Observer *observer = nullptr;
};

class Fleet
{
  public:
    /**
     * Boots every replica. Replica 0 seeds the shared store (cold
     * build + save under the write lock when no valid artifact is
     * present); later replicas warm-boot from it.
     * @throws std::invalid_argument on replicas == 0 or empty
     *         storeDir.
     */
    Fleet(const core::MemoryFriendlyLstm &mf, FleetOptions opts);

    /** Drains pending work, then stops the replicas. */
    ~Fleet();
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** Install the chaos schedule applied by subsequent ticks. */
    void setChaosPlan(ChaosPlan plan);
    const ChaosPlan &chaosPlan() const { return chaos_; }

    /**
     * Accept one request and dispatch (or park) it. Returns its fleet
     * id (1, 2, ... in submission order).
     * @throws std::invalid_argument on empty tokens.
     */
    std::uint64_t submit(FleetRequest req);

    struct TickReport
    {
        std::uint64_t tick = 0;
        std::vector<ChaosEvent> applied;
        /// flash-crowd arrivals the driver should submit this tick
        std::size_t flashCrowdBurst = 0;
    };

    /**
     * Advance one control tick: chaos events due now, scheduled
     * restarts / brownout expiries, heartbeats, breaker cooldowns,
     * governor-ladder redistribution over the survivors, then one
     * pump pass.
     */
    TickReport tick();

    /** Poll pending work: completions, failover, hedging, parking. */
    void pump();

    /** Pump until every accepted request has a terminal response. */
    void drain();

    /** drain(), then stop every replica. Idempotent. */
    void shutdown();

    // --- results & introspection ------------------------------------
    std::size_t pendingCount() const { return pending_.size(); }
    std::size_t replicaCount() const { return replicas_.size(); }
    Replica &replica(std::size_t i) { return *replicas_.at(i); }
    Router &router() { return *router_; }
    io::ArtifactStore &store() { return *store_; }
    obs::Observer &observer() { return *obs_; }
    const FleetOptions &options() const { return opts_; }

    /** Read from the fleet.*_total series: submitted, completed, ok,
     *  failed, failover, hedge, hedge_win and parked. */
    struct Stats
    {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t ok = 0;
        std::uint64_t failed = 0;
        std::uint64_t failovers = 0;  ///< re-dispatches off a failure
        std::uint64_t hedges = 0;     ///< secondary dispatches
        std::uint64_t hedgeWins = 0;  ///< hedges that produced the result
        std::uint64_t parked = 0;     ///< waits with no eligible replica
    };
    Stats stats() const;

    /** Ok share of completed requests (1.0 when none completed). */
    double availability() const;

  private:
    /// the fleet's counters, bound once at construction
    struct Instruments
    {
        explicit Instruments(obs::MetricsRegistry &m);

        obs::Counter &submitted, &completed, &ok, &failed, &failovers,
            &hedges, &hedgeWins, &parked, &chaosApplied;
    };
    /// fleet.dispatch_total and fleet.responses_total of one replica
    struct ReplicaSeries
    {
        obs::Counter &dispatched, &responses;
    };

    struct Pending
    {
        FleetRequest req;
        serve::Request built;  ///< tokens + SLO hints, ready to send
        std::uint64_t fleetId = 0;
        int attempts = 0;
        bool hedged = false;
        std::size_t replica = Router::kNoReplica;
        std::future<serve::Response> fut;  ///< invalid while parked
        std::size_t hedgeReplica = Router::kNoReplica;
        std::future<serve::Response> hedgeFut;
        std::chrono::steady_clock::time_point dispatched{};
    };

    std::vector<ReplicaSnapshot> snapshots() const;
    /// route + submit; false = parked (no eligible replica / dead
    /// engine race)
    bool dispatch(Pending &p, std::size_t avoid);
    /// count one terminal response produced by @p replica
    void complete(const serve::Response &r, std::size_t replica);
    void applyChaosEvent(const ChaosEvent &e, TickReport &report);
    void redistributeGovernor();

    FleetOptions opts_;
    const core::MemoryFriendlyLstm *mf_;
    std::unique_ptr<obs::Observer> ownedObs_;
    obs::Observer *obs_;
    const Instruments m_;
    std::unique_ptr<io::ArtifactStore> store_;
    std::unique_ptr<Router> router_;
    std::vector<std::unique_ptr<Replica>> replicas_;
    /// index-aligned with replicas_
    std::vector<ReplicaSeries> replicaSeries_;

    ChaosPlan chaos_;
    std::uint64_t tickNow_ = 0;
    std::vector<std::pair<std::uint64_t, std::size_t>> restartsDue_;
    std::vector<std::pair<std::uint64_t, std::size_t>> brownoutEndsDue_;

    std::uint64_t nextFleetId_ = 1;
    std::vector<Pending> pending_;
    /// losing hedge futures: polled until they resolve, then dropped
    /// (execution is pure, so the duplicate result is just discarded)
    std::vector<std::future<serve::Response>> discarded_;
    bool shutdown_ = false;
};

} // namespace fleet
} // namespace mflstm

#endif // MFLSTM_FLEET_FLEET_HH
