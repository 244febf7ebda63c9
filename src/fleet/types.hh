/**
 * @file
 * Value types of the fleet layer (DESIGN.md §16): the three replica
 * health states, per-tenant SLO classes, routing policies, and the
 * request envelope that rides through the Router to an engine replica.
 */

#ifndef MFLSTM_FLEET_TYPES_HH
#define MFLSTM_FLEET_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mflstm {
namespace fleet {

/**
 * Health-state machine of one replica (DESIGN.md §16):
 *
 *   Healthy | Recovering --kill, or kDownAfterMisses misses--> Down
 *   Down --restart()--> Recovering
 *   Recovering | Down with a live engine --one ok heartbeat--> Healthy
 *
 * Down replicas are ineligible for routing. The enumerator values are
 * what the fleet.state{replica=...} gauge reads: 0, 1, 2.
 */
enum class ReplicaState : std::uint8_t
{
    Healthy = 0,
    Down,
    Recovering,
};

const char *toString(ReplicaState s);

/** Per-tenant service class: scheduling hints applied at submit. */
struct SloClass
{
    std::string tenant;    ///< tenant name this class applies to
    int priority = 0;      ///< forwarded to Request::priority
    double deadlineMs = 0.0;  ///< forwarded to Request::deadlineMs
};

/** How the Router spreads sessions over eligible replicas. */
enum class RoutingPolicy : std::uint8_t
{
    /**
     * Keep a session pinned to the replica that already holds its
     * warm ladder and resident weights (the E-PUR argument); re-pin
     * only when the pinned replica becomes ineligible.
     */
    SessionAffinity = 0,
    RoundRobin,
    LeastLoaded,
};

const char *toString(RoutingPolicy p);

/** One fleet job: tokens plus the routing/SLO identity. */
struct FleetRequest
{
    std::vector<std::int32_t> tokens;
    std::string sessionId;
    std::string tenant;
};

/** Router-visible view of one replica at routing time. */
struct ReplicaSnapshot
{
    std::size_t index = 0;
    ReplicaState state = ReplicaState::Healthy;
    bool breakerOpen = false;
    std::size_t queueDepth = 0;
};

} // namespace fleet
} // namespace mflstm

#endif // MFLSTM_FLEET_TYPES_HH
