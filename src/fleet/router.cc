#include "fleet/router.hh"

#include <functional>
#include <limits>

namespace mflstm {
namespace fleet {

const char *
toString(ReplicaState s)
{
    switch (s) {
    case ReplicaState::Healthy: return "healthy";
    case ReplicaState::Down: return "down";
    case ReplicaState::Recovering: return "recovering";
    }
    return "?";
}

const char *
toString(RoutingPolicy p)
{
    switch (p) {
    case RoutingPolicy::SessionAffinity: return "affinity";
    case RoutingPolicy::RoundRobin: return "round-robin";
    case RoutingPolicy::LeastLoaded: return "least-loaded";
    }
    return "?";
}

Router::Router(RoutingPolicy policy, std::vector<SloClass> slos,
               obs::Observer *obs)
    : policy_(policy), obs_(obs)
{
    for (SloClass &s : slos)
        slos_.emplace(s.tenant, std::move(s));
}

const SloClass &
Router::sloFor(const std::string &tenant) const
{
    const auto it = slos_.find(tenant);
    return it == slos_.end() ? defaultSlo : it->second;
}

std::size_t
Router::pickEligible(const std::string &session_id,
                     const std::vector<ReplicaSnapshot> &snaps,
                     std::size_t avoid) const
{
    std::vector<std::size_t> candidates;
    for (const ReplicaSnapshot &s : snaps)
        if (eligible(s) && s.index != avoid)
            candidates.push_back(s.index);
    if (candidates.empty())
        // The avoided replica is better than nothing (the caller is
        // failing over but every sibling is down too).
        for (const ReplicaSnapshot &s : snaps)
            if (eligible(s))
                candidates.push_back(s.index);
    if (candidates.empty())
        return kNoReplica;

    switch (policy_) {
    case RoutingPolicy::SessionAffinity: {
        // Stable spread: hash the session over the candidates.
        const std::size_t h =
            std::hash<std::string>{}(session_id);
        return candidates[h % candidates.size()];
    }
    case RoutingPolicy::RoundRobin:
        return candidates[rrNext_ % candidates.size()];
    case RoutingPolicy::LeastLoaded: {
        std::size_t best = candidates.front();
        std::size_t best_depth = std::numeric_limits<std::size_t>::max();
        for (std::size_t idx : candidates)
            if (snaps[idx].queueDepth < best_depth) {
                best = idx;
                best_depth = snaps[idx].queueDepth;
            }
        return best;
    }
    }
    return candidates.front();
}

std::size_t
Router::route(const std::string &session_id,
              const std::vector<ReplicaSnapshot> &snaps,
              std::size_t avoid)
{
    // An existing pin wins while its replica stays eligible (and is
    // not the replica the caller is failing away from).
    if (policy_ == RoutingPolicy::SessionAffinity) {
        const auto it = pins_.find(session_id);
        if (it != pins_.end()) {
            const std::size_t cur = it->second;
            if (cur < snaps.size() && cur != avoid &&
                eligible(snaps[cur]))
                return cur;
        }
    }

    const std::size_t chosen = pickEligible(session_id, snaps, avoid);
    if (chosen == kNoReplica)
        return kNoReplica;

    if (policy_ == RoutingPolicy::RoundRobin)
        ++rrNext_;

    if (policy_ == RoutingPolicy::SessionAffinity) {
        const auto it = pins_.find(session_id);
        if (it != pins_.end() && it->second != chosen) {
            ++sessionFailovers_;
            if (obs_)
                obs_->metrics()
                    .counter("fleet.session_failover_total")
                    .add();
        }
        pins_[session_id] = chosen;
    }
    return chosen;
}

} // namespace fleet
} // namespace mflstm
