#include "fleet/fleet.hh"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace mflstm {
namespace fleet {

namespace {

double
ageMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

bool
ready(const std::future<serve::Response> &fut)
{
    return fut.valid() && fut.wait_for(std::chrono::seconds(0)) ==
                              std::future_status::ready;
}

} // anonymous namespace

Fleet::Fleet(const core::MemoryFriendlyLstm &mf, FleetOptions opts)
    : opts_(std::move(opts)), mf_(&mf)
{
    if (opts_.replicas == 0)
        throw std::invalid_argument("Fleet: replicas == 0");
    if (opts_.storeDir.empty())
        throw std::invalid_argument("Fleet: storeDir is required");
    if (opts_.maxAttempts < 1)
        throw std::invalid_argument("Fleet: maxAttempts < 1");

    if (opts_.observer) {
        obs_ = opts_.observer;
    } else {
        ownedObs_ = std::make_unique<obs::Observer>();
        obs_ = ownedObs_.get();
    }
    store_ = std::make_unique<io::ArtifactStore>(opts_.storeDir);
    router_ =
        std::make_unique<Router>(opts_.policy, opts_.slos, obs_);

    // Touch the headline counters so dumps show them even at zero.
    obs_->metrics().counter("fleet.failover_total");
    obs_->metrics().counter("fleet.hedge_total");

    // Replica 0 seeds the store (cold build + save under the write
    // lock when no valid artifact exists); later replicas warm-boot
    // from the shared artifact instead of re-planning every rung.
    for (std::size_t i = 0; i < opts_.replicas; ++i) {
        ReplicaConfig rc;
        rc.name = 'r' + std::to_string(i);
        rc.engine = opts_.engine;
        rc.engine.observer = obs_;
        rc.degradedAfter = opts_.degradedAfter;
        rc.downAfter = opts_.downAfter;
        rc.recoverAfter = opts_.recoverAfter;
        rc.heartbeatSloMs = opts_.heartbeatSloMs;
        rc.probeTokens = opts_.probeTokens;
        rc.breakerTripAfter = opts_.breakerTripAfter;
        rc.breakerCooldownTicks = opts_.breakerCooldownTicks;
        replicas_.push_back(std::make_unique<Replica>(
            i, mf, *store_, std::move(rc), obs_));
    }
    obs_->metrics()
        .gauge("fleet.replicas")
        .set(static_cast<double>(opts_.replicas));
}

Fleet::~Fleet()
{
    try {
        shutdown();
    } catch (...) {
    }
}

void
Fleet::setChaosPlan(ChaosPlan plan)
{
    chaos_ = std::move(plan);
    obs_->metrics()
        .gauge("fleet.chaos_seed")
        .set(static_cast<double>(chaos_.seed));
}

std::vector<ReplicaSnapshot>
Fleet::snapshots() const
{
    std::vector<ReplicaSnapshot> snaps;
    snaps.reserve(replicas_.size());
    for (const auto &r : replicas_)
        snaps.push_back(r->snapshot());
    return snaps;
}

bool
Fleet::dispatch(Pending &p, std::size_t avoid)
{
    const std::size_t idx =
        router_->route(p.req.sessionId, snapshots(), avoid);
    if (idx == Router::kNoReplica)
        return false;
    std::future<serve::Response> fut =
        replicas_[idx]->submit(p.built);  // copy: redispatch reuses it
    if (!fut.valid()) {
        // The engine died between the snapshot and the push; let the
        // breaker learn and report this dispatch as parked.
        replicas_[idx]->breaker().onFailure();
        return false;
    }
    ++p.attempts;
    p.replica = idx;
    p.fut = std::move(fut);
    p.dispatched = std::chrono::steady_clock::now();
    obs_->metrics()
        .counter("fleet.dispatch_total",
                 {{"replica", replicas_[idx]->name()}})
        .add();
    return true;
}

std::uint64_t
Fleet::submit(FleetRequest req)
{
    if (shutdown_)
        throw std::runtime_error("Fleet::submit: fleet is shut down");
    if (req.tokens.empty())
        throw std::invalid_argument("Fleet::submit: empty tokens");

    Pending p;
    const SloClass &slo = router_->sloFor(req.tenant);
    p.built.tokens = req.tokens;
    p.built.priority = slo.priority;
    p.built.deadlineMs = slo.deadlineMs;
    p.req = std::move(req);
    p.fleetId = nextFleetId_++;

    ++stats_.submitted;
    obs_->metrics().counter("fleet.submitted_total").add();

    if (!dispatch(p, Router::kNoReplica)) {
        if (!opts_.failover) {
            // No robustness machinery: an unroutable request is a
            // terminal failure right away.
            serve::Response r;
            r.status = serve::Status::Failed;
            r.error = "no eligible replica";
            const std::uint64_t id = p.fleetId;
            complete(p, std::move(r), p.replica, false);
            return id;
        }
        ++stats_.parked;
        obs_->metrics().counter("fleet.parked_total").add();
    }
    const std::uint64_t id = p.fleetId;
    pending_.push_back(std::move(p));
    return id;
}

void
Fleet::complete(Pending &p, serve::Response r, std::size_t replica,
                bool via_hedge)
{
    FleetResponse fr;
    fr.fleetId = p.fleetId;
    fr.replica = replica;
    fr.attempts = p.attempts;
    fr.failedOver = p.failedOver;
    fr.hedged = via_hedge;
    fr.response = std::move(r);

    ++stats_.completed;
    obs_->metrics().counter("fleet.completed_total").add();
    if (fr.response.status == serve::Status::Ok) {
        ++stats_.ok;
    } else if (fr.response.status == serve::Status::Failed) {
        ++stats_.failed;
        obs_->metrics().counter("fleet.failed_total").add();
    }
    if (replica < replicas_.size())
        obs_->metrics()
            .counter("fleet.responses_total",
                     {{"replica", replicas_[replica]->name()}})
            .add();
    completed_.push_back(std::move(fr));
}

void
Fleet::pump()
{
    // Losing hedge twins resolve on their own schedule; drop the
    // results as they land (re-simulation is pure — the duplicate
    // carries no side effect worth keeping).
    discarded_.erase(
        std::remove_if(discarded_.begin(), discarded_.end(),
                       [](std::future<serve::Response> &f) {
                           if (!ready(f))
                               return false;
                           f.get();
                           return true;
                       }),
        discarded_.end());

    std::size_t i = 0;
    while (i < pending_.size()) {
        Pending &p = pending_[i];
        bool done = false;

        if (!p.fut.valid()) {
            // Parked: retry while the request still has attempts and
            // failover is on (parking never happens with it off).
            dispatch(p, Router::kNoReplica);
        } else if (ready(p.fut)) {
            serve::Response r = p.fut.get();
            const std::size_t from = p.replica;
            const bool infra_failure =
                r.status == serve::Status::Failed ||
                r.status == serve::Status::RejectedCapacity;
            if (infra_failure)
                replicas_[from]->breaker().onFailure();
            else
                replicas_[from]->breaker().onSuccess();

            if (infra_failure && opts_.failover &&
                p.attempts < opts_.maxAttempts) {
                // Hedged or stranded-on-a-dead-replica re-dispatch:
                // idempotent by construction, the functional run is a
                // pure re-simulation of the same tokens.
                p.failedOver = true;
                ++stats_.failovers;
                obs_->metrics().counter("fleet.failover_total").add();
                if (p.hedgeFut.valid()) {
                    // The hedge twin is already racing: promote it.
                    p.fut = std::move(p.hedgeFut);
                    p.replica = p.hedgeReplica;
                    p.hedgeReplica = Router::kNoReplica;
                } else if (!dispatch(p, from)) {
                    p.fut = {};
                    p.replica = Router::kNoReplica;
                    ++stats_.parked;
                    obs_->metrics().counter("fleet.parked_total").add();
                }
            } else {
                if (p.hedgeFut.valid())
                    discarded_.push_back(std::move(p.hedgeFut));
                complete(p, std::move(r), from, false);
                done = true;
            }
        } else if (ready(p.hedgeFut)) {
            serve::Response r = p.hedgeFut.get();
            if (r.status == serve::Status::Ok) {
                // Hedge won the race; the primary's eventual result
                // is discarded.
                replicas_[p.hedgeReplica]->breaker().onSuccess();
                ++stats_.hedgeWins;
                discarded_.push_back(std::move(p.fut));
                complete(p, std::move(r), p.hedgeReplica, true);
                done = true;
            } else {
                if (r.status == serve::Status::Failed ||
                    r.status == serve::Status::RejectedCapacity)
                    replicas_[p.hedgeReplica]->breaker().onFailure();
                p.hedgeReplica = Router::kNoReplica;
                p.hedgeFut = {};
            }
        } else if (!p.hedged && opts_.failover &&
                   opts_.hedgeAfterMs > 0.0 && p.fut.valid() &&
                   p.replica < replicas_.size() &&
                   replicas_[p.replica]->state() ==
                       ReplicaState::Degraded &&
                   ageMs(p.dispatched) >= opts_.hedgeAfterMs) {
            // Latency hedging: a request stuck on a Degraded replica
            // gets a secondary dispatch; first Ok wins.
            const std::size_t idx = router_->route(
                p.req.sessionId + "#hedge", snapshots(), p.replica);
            if (idx != Router::kNoReplica && idx != p.replica) {
                std::future<serve::Response> fut =
                    replicas_[idx]->submit(p.built);
                if (fut.valid()) {
                    p.hedged = true;
                    p.hedgeReplica = idx;
                    p.hedgeFut = std::move(fut);
                    ++stats_.hedges;
                    obs_->metrics().counter("fleet.hedge_total").add();
                }
            }
        }

        if (done)
            pending_.erase(pending_.begin() +
                           static_cast<std::ptrdiff_t>(i));
        else
            ++i;
    }
}

void
Fleet::applyChaosEvent(const ChaosEvent &e, TickReport &report)
{
    obs_->metrics().counter("fleet.chaos_applied_total").add();
    report.applied.push_back(e);
    switch (e.kind) {
    case ChaosEvent::Kind::Crash:
        replicas_.at(e.replica)->kill(/*corrupt_state=*/false);
        restartsDue_.emplace_back(tickNow_ + opts_.restartAfterTicks,
                                  e.replica);
        break;
    case ChaosEvent::Kind::CorruptRestart:
        replicas_.at(e.replica)->kill(/*corrupt_state=*/true);
        restartsDue_.emplace_back(tickNow_ + opts_.restartAfterTicks,
                                  e.replica);
        break;
    case ChaosEvent::Kind::Brownout:
        replicas_.at(e.replica)->setBrownout(e.brownoutMs);
        brownoutEndsDue_.emplace_back(tickNow_ + e.durationTicks,
                                      e.replica);
        break;
    case ChaosEvent::Kind::FlashCrowd:
        report.flashCrowdBurst += e.burstRequests;
        break;
    }
}

void
Fleet::redistributeGovernor()
{
    const std::size_t rungs = opts_.engine.governorLadder.size();
    if (rungs < 2)
        return;
    const std::size_t n = replicas_.size();
    std::size_t down = 0;
    for (const auto &r : replicas_)
        if (r->state() == ReplicaState::Down)
            ++down;
    // Survivors absorb the dead replicas' share of the traffic, so
    // they pre-degrade proportionally along the AO->BPA ladder
    // instead of discovering the overload through queue depth alone.
    const std::size_t floor =
        down == 0 ? 0
                  : std::min(rungs - 1,
                             ((rungs - 1) * down + n - 1) / n);
    obs_->metrics()
        .gauge("fleet.governor_floor")
        .set(static_cast<double>(floor));
    for (const auto &r : replicas_)
        if (r->alive())
            r->engine()->setGovernorRungFloor(floor);
}

Fleet::TickReport
Fleet::tick()
{
    TickReport report;
    report.tick = tickNow_;

    for (const ChaosEvent &e : chaos_.eventsAt(tickNow_))
        applyChaosEvent(e, report);

    // Scheduled recoveries before heartbeats, so a restarted
    // replica's first probe counts toward Recovering -> Healthy.
    for (auto it = restartsDue_.begin(); it != restartsDue_.end();) {
        if (it->first <= tickNow_) {
            replicas_.at(it->second)->restart();
            it = restartsDue_.erase(it);
        } else {
            ++it;
        }
    }
    for (auto it = brownoutEndsDue_.begin();
         it != brownoutEndsDue_.end();) {
        if (it->first <= tickNow_) {
            replicas_.at(it->second)->setBrownout(0.0);
            it = brownoutEndsDue_.erase(it);
        } else {
            ++it;
        }
    }

    for (const auto &r : replicas_)
        r->heartbeat();
    for (const auto &r : replicas_)
        r->breaker().tick();

    redistributeGovernor();
    pump();

    ++tickNow_;
    return report;
}

void
Fleet::drain()
{
    // Engines resolve every dispatched future terminally, so this
    // converges; the stall guard only fires for requests parked with
    // every replica permanently gone, which then resolve Failed —
    // terminal either way, an accepted request is never lost.
    int stalled = 0;
    std::size_t last_pending = pending_.size() + 1;
    while (!pending_.empty()) {
        pump();
        if (pending_.size() == last_pending)
            ++stalled;
        else
            stalled = 0;
        last_pending = pending_.size();
        if (stalled > 2000) {
            for (Pending &p : pending_) {
                if (p.fut.valid())
                    continue;  // still owed a terminal resolution
                serve::Response r;
                r.status = serve::Status::Failed;
                r.error = "no eligible replica";
                complete(p, std::move(r), p.replica, false);
                p.fleetId = 0;  // mark resolved
            }
            pending_.erase(
                std::remove_if(pending_.begin(), pending_.end(),
                               [](const Pending &p) {
                                   return p.fleetId == 0;
                               }),
                pending_.end());
            stalled = 0;
        }
        if (!pending_.empty())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (std::future<serve::Response> &f : discarded_)
        if (f.valid())
            f.get();
    discarded_.clear();
}

void
Fleet::shutdown()
{
    if (shutdown_)
        return;
    drain();
    shutdown_ = true;
    for (const auto &r : replicas_)
        if (r->engine())
            r->engine()->shutdown();
}

std::vector<FleetResponse>
Fleet::takeCompleted()
{
    std::vector<FleetResponse> out = std::move(completed_);
    completed_.clear();
    return out;
}

double
Fleet::availability() const
{
    if (stats_.completed == 0)
        return 1.0;
    return static_cast<double>(stats_.ok) /
           static_cast<double>(stats_.completed);
}

} // namespace fleet
} // namespace mflstm
