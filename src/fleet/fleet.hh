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
 * pumps the pending set. The pump is where robustness lives, and
 * FleetOptions::failover switches both of its moves:
 *
 *  - failover: a request that came back Failed / RejectedCapacity
 *    (e.g. stranded on a killed replica) is re-dispatched to another
 *    eligible replica while it has made fewer than kMaxAttempts (3)
 *    dispatches — idempotent by construction, re-simulation is pure
 *    (fleet.failover_total);
 *  - parking: with no eligible replica, the request waits and is
 *    re-dispatched when one recovers, so an accepted request is never
 *    silently dropped (fleet.parked_total).
 *
 * Every accepted request reaches exactly one terminal response, counted
 * in the fleet.* series that stats() reads: drain() pumps until the
 * pending set is empty (engines resolve all futures terminally, so
 * this converges; drain() runs no tick, so requests left parked by a
 * pump that dispatches none of them resolve Failed at once), and
 * shutdown() drains before stopping the replicas.
 *
 * Thread safety: submit/tick/pump/drain are driven from one control
 * thread; the engines' worker pools run concurrently underneath.
 */

#ifndef MFLSTM_FLEET_FLEET_HH
#define MFLSTM_FLEET_FLEET_HH

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

    /// the robustness moves: failover re-dispatch and parking. Off =
    /// a failure, or a request with no eligible replica, is terminal.
    bool failover = true;

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

    /** Poll pending work: completions, failover, parking. */
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
     *  failed, failover and parked. */
    struct Stats
    {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t ok = 0;
        std::uint64_t failed = 0;
        std::uint64_t failovers = 0;  ///< re-dispatches off a failure
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
            &parked, &chaosApplied;
    };
    /// fleet.dispatch_total and fleet.responses_total of one replica
    struct ReplicaSeries
    {
        obs::Counter &dispatched, &responses;
    };

    struct Pending
    {
        std::string sessionId;
        serve::Request built;  ///< tokens + SLO hints, ready to send
        int attempts = 0;
        std::size_t replica = Router::kNoReplica;
        std::future<serve::Response> fut;  ///< invalid while parked
    };

    std::vector<ReplicaSnapshot> snapshots() const;
    /// route + submit; false = parked (no eligible replica / dead
    /// engine race)
    bool dispatch(Pending &p, std::size_t avoid);
    /// count one terminal response produced by @p replica
    /// (Router::kNoReplica: the fleet failed it itself)
    void complete(serve::Status status, std::size_t replica);
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
    bool shutdown_ = false;
};

} // namespace fleet
} // namespace mflstm

#endif // MFLSTM_FLEET_FLEET_HH
