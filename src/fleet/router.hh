/**
 * @file
 * Fleet router (DESIGN.md §16): picks the replica for each dispatch.
 * Session affinity keeps a session on the replica that already holds
 * its warm ladder and resident weights (E-PUR's cross-session
 * weight-reuse argument); round-robin and least-loaded are the
 * comparison policies the chaos bench sweeps. Routing only considers
 * *eligible* replicas — not Down, circuit breaker closed — and a
 * pinned session is re-pinned (counted as a session failover) when
 * its replica becomes ineligible.
 *
 * Per-tenant SLO classes attach scheduling hints (priority, deadline)
 * at submit time; unknown tenants get the default class.
 *
 * Thread safety: none required — the Fleet drives the router from
 * its single pump path.
 */

#ifndef MFLSTM_FLEET_ROUTER_HH
#define MFLSTM_FLEET_ROUTER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/types.hh"
#include "obs/observer.hh"

namespace mflstm {
namespace fleet {

class Router
{
  public:
    /** @p slos may be empty: every tenant then gets defaultSlo. */
    Router(RoutingPolicy policy, std::vector<SloClass> slos,
           obs::Observer *obs = nullptr);

    RoutingPolicy policy() const { return policy_; }

    /** Is @p snap a routing candidate at all? */
    static bool eligible(const ReplicaSnapshot &snap)
    {
        return snap.state != ReplicaState::Down && !snap.breakerOpen;
    }

    /** Sentinel for "no eligible replica". */
    static constexpr std::size_t kNoReplica = ~std::size_t{0};

    /**
     * Pick the replica for @p session_id given the current snapshots
     * (indexed by replica). Returns kNoReplica when nothing is
     * eligible.
     * @param avoid optional replica to exclude (failover re-dispatch
     *        away from the replica that just failed); ignored when it
     *        is the only eligible one.
     */
    std::size_t route(const std::string &session_id,
                      const std::vector<ReplicaSnapshot> &snaps,
                      std::size_t avoid = kNoReplica);

    /** The SLO class for @p tenant (defaultSlo when unknown). */
    const SloClass &sloFor(const std::string &tenant) const;

    SloClass defaultSlo;

    /** Sessions re-pinned because their replica became ineligible. */
    std::uint64_t sessionFailovers() const { return sessionFailovers_; }

  private:
    std::size_t pickEligible(const std::string &session_id,
                             const std::vector<ReplicaSnapshot> &snaps,
                             std::size_t avoid) const;

    RoutingPolicy policy_;
    std::map<std::string, SloClass> slos_;
    obs::Observer *obs_;
    std::map<std::string, std::size_t> pins_;
    std::size_t rrNext_ = 0;
    std::uint64_t sessionFailovers_ = 0;
};

} // namespace fleet
} // namespace mflstm

#endif // MFLSTM_FLEET_ROUTER_HH
