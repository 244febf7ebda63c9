#include "fleet/fleet.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

namespace mflstm {
namespace fleet {

namespace {

/// dispatches per request: the first plus up to two failovers
constexpr int kMaxAttempts = 3;
/// a chaos-killed replica restarts this many ticks after going down
constexpr std::uint64_t kRestartAfterTicks = 2;

bool
ready(const std::future<serve::Response> &fut)
{
    return fut.valid() && fut.wait_for(std::chrono::seconds(0)) ==
                              std::future_status::ready;
}

} // anonymous namespace

Fleet::Instruments::Instruments(obs::MetricsRegistry &m)
    : submitted(m.counter("fleet.submitted_total")),
      completed(m.counter("fleet.completed_total")),
      ok(m.counter("fleet.ok_total")),
      failed(m.counter("fleet.failed_total")),
      failovers(m.counter("fleet.failover_total")),
      parked(m.counter("fleet.parked_total")),
      chaosApplied(m.counter("fleet.chaos_applied_total"))
{}

Fleet::Fleet(const core::MemoryFriendlyLstm &mf, FleetOptions opts)
    : opts_(std::move(opts)), mf_(&mf),
      ownedObs_(opts_.observer ? nullptr
                               : std::make_unique<obs::Observer>()),
      obs_(opts_.observer ? opts_.observer : ownedObs_.get()),
      m_(obs_->metrics())
{
    if (opts_.replicas == 0)
        throw std::invalid_argument("Fleet: replicas == 0");
    if (opts_.storeDir.empty())
        throw std::invalid_argument("Fleet: storeDir is required");

    store_ = std::make_unique<io::ArtifactStore>(opts_.storeDir);
    router_ =
        std::make_unique<Router>(opts_.policy, opts_.slos, obs_);

    // Replica 0 seeds the store (cold build + save under the write
    // lock when no valid artifact exists); later replicas warm-boot
    // from the shared artifact instead of re-planning every rung.
    for (std::size_t i = 0; i < opts_.replicas; ++i) {
        replicas_.push_back(std::make_unique<Replica>(
            i, mf, *store_, opts_.engine, *obs_));
        const obs::Labels label = {{"replica", replicas_.back()->name()}};
        replicaSeries_.push_back(
            {obs_->metrics().counter("fleet.dispatch_total", label),
             obs_->metrics().counter("fleet.responses_total", label)});
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
        router_->route(p.sessionId, snapshots(), avoid);
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
    replicaSeries_[idx].dispatched.add();
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
    p.sessionId = std::move(req.sessionId);
    p.built.tokens = std::move(req.tokens);
    p.built.priority = slo.priority;
    p.built.deadlineMs = slo.deadlineMs;

    m_.submitted.add();

    const std::uint64_t id = nextFleetId_++;
    if (!dispatch(p, Router::kNoReplica)) {
        if (!opts_.failover) {
            // No parking: an unroutable request fails right away.
            complete(serve::Status::Failed, Router::kNoReplica);
            return id;
        }
        m_.parked.add();
    }
    pending_.push_back(std::move(p));
    return id;
}

void
Fleet::complete(serve::Status status, std::size_t replica)
{
    m_.completed.add();
    if (status == serve::Status::Ok)
        m_.ok.add();
    else if (status == serve::Status::Failed)
        m_.failed.add();
    if (replica < replicas_.size())
        replicaSeries_[replica].responses.add();
}

void
Fleet::pump()
{
    std::size_t i = 0;
    while (i < pending_.size()) {
        Pending &p = pending_[i];
        bool done = false;

        if (!p.fut.valid()) {
            // Parked: re-dispatch once a replica is eligible again.
            dispatch(p, Router::kNoReplica);
        } else if (ready(p.fut)) {
            const serve::Status status = p.fut.get().status;
            const std::size_t from = p.replica;
            const bool infra_failure =
                status == serve::Status::Failed ||
                status == serve::Status::RejectedCapacity;
            if (infra_failure)
                replicas_[from]->breaker().onFailure();
            else
                replicas_[from]->breaker().onSuccess();

            if (infra_failure && opts_.failover &&
                p.attempts < kMaxAttempts) {
                // Idempotent by construction: the functional run is a
                // pure re-simulation of the same tokens.
                m_.failovers.add();
                if (!dispatch(p, from)) {
                    p.fut = {};
                    p.replica = Router::kNoReplica;
                    m_.parked.add();
                }
            } else {
                complete(status, from);
                done = true;
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
    m_.chaosApplied.add();
    report.applied.push_back(e);
    switch (e.kind) {
    case ChaosEvent::Kind::Crash:
        replicas_.at(e.replica)->kill(/*corrupt_state=*/false);
        restartsDue_.emplace_back(tickNow_ + kRestartAfterTicks,
                                  e.replica);
        break;
    case ChaosEvent::Kind::CorruptRestart:
        replicas_.at(e.replica)->kill(/*corrupt_state=*/true);
        restartsDue_.emplace_back(tickNow_ + kRestartAfterTicks,
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
    // Engines resolve every dispatched future terminally, so in-flight
    // work converges. Parked work can only leave through a replica
    // that becomes eligible, and that takes a tick, which drain() never
    // runs: once a pump over nothing but parked requests dispatches
    // none of them, no later pump will. They resolve Failed then —
    // terminal either way, an accepted request is never lost.
    const auto parked_only = [this] {
        return std::none_of(
            pending_.begin(), pending_.end(),
            [](const Pending &p) { return p.fut.valid(); });
    };
    while (!pending_.empty()) {
        const bool stalled = parked_only();
        pump();
        if (stalled && parked_only()) {
            for (std::size_t i = 0; i < pending_.size(); ++i)
                complete(serve::Status::Failed, Router::kNoReplica);
            pending_.clear();
        } else if (!pending_.empty()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
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

Fleet::Stats
Fleet::stats() const
{
    const auto count = [](const obs::Counter &c) {
        return static_cast<std::uint64_t>(c.value());
    };
    return Stats{count(m_.submitted), count(m_.completed),
                 count(m_.ok),        count(m_.failed),
                 count(m_.failovers), count(m_.parked)};
}

double
Fleet::availability() const
{
    const Stats s = stats();
    if (s.completed == 0)
        return 1.0;
    return static_cast<double>(s.ok) / static_cast<double>(s.completed);
}

} // namespace fleet
} // namespace mflstm
