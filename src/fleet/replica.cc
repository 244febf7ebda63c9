#include "fleet/replica.hh"

#include <fstream>
#include <stdexcept>
#include <utility>

#include "serve/persist.hh"

namespace mflstm {
namespace fleet {

namespace {

/** Heartbeat probes jump every tenant's queue. */
constexpr int kProbePriority = 1 << 20;
/** The heartbeat probe's tokens (valid ids of every model). */
const std::vector<std::int32_t> kProbeTokens = {1, 2, 3};

} // anonymous namespace

Replica::Instruments::Instruments(obs::MetricsRegistry &m,
                                  const std::string &name)
    : kills(m.counter("fleet.killed_total", {{"replica", name}})),
      restarts(m.counter("fleet.restart_total", {{"replica", name}})),
      coldRecoveries(
          m.counter("fleet.cold_recovery_total", {{"replica", name}})),
      heartbeatMisses(
          m.counter("fleet.heartbeat_miss_total", {{"replica", name}})),
      stateChanges(
          m.counter("fleet.state_change_total", {{"replica", name}})),
      state(m.gauge("fleet.state", {{"replica", name}}))
{}

Replica::Replica(std::size_t index, const core::MemoryFriendlyLstm &mf,
                 io::ArtifactStore &store,
                 serve::InferenceEngine::Options engine, obs::Observer &obs)
    : index_(index), mf_(&mf), store_(&store),
      name_('r' + std::to_string(index)), engineOpts_(std::move(engine)),
      obs_(obs), m_(obs.metrics(), name_)
{
    engineOpts_.observer = &obs_;
    rebuildEngine();
    setState(ReplicaState::Healthy, "boot");
}

Replica::~Replica() = default;

Replica::Counters
Replica::counters() const
{
    const auto count = [](const obs::Counter &c) {
        return static_cast<std::uint64_t>(c.value());
    };
    return Counters{count(m_.kills), count(m_.restarts),
                    count(m_.coldRecoveries), count(m_.heartbeatMisses)};
}

bool
Replica::alive() const
{
    return engine_ && !engine_->killed();
}

std::size_t
Replica::queueDepth() const
{
    return alive() ? engine_->queueDepth() : 0;
}

ReplicaSnapshot
Replica::snapshot() const
{
    ReplicaSnapshot s;
    s.index = index_;
    s.state = state_;
    s.breakerOpen = breaker_.open;
    s.queueDepth = queueDepth();
    return s;
}

std::future<serve::Response>
Replica::submit(serve::Request req)
{
    if (!alive())
        return {};
    try {
        return engine_->submit(std::move(req));
    } catch (const std::exception &) {
        // Lost the race with a concurrent kill/shutdown: the queue
        // closed between the alive() check and the push.
        return {};
    }
}

void
Replica::kill(bool corrupt_state)
{
    if (corrupt_state)
        corruptNextRestart_ = true;
    if (!alive()) {
        setState(ReplicaState::Down, "kill");
        return;
    }
    m_.kills.add();
    engine_->kill();
    setState(ReplicaState::Down, "kill");
}

void
Replica::setBrownout(double ms)
{
    if (engine_)
        engine_->setBrownoutMs(ms);
}

void
Replica::corruptStoredState()
{
    const std::string path = store_->path(kEngineStateArtifact);
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    if (!f)
        return;
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    if (size <= 0)
        return;
    // Flip one payload byte mid-file; the chunk CRC catches it.
    const std::streamoff at = size / 2;
    f.seekg(at);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(at);
    f.write(&byte, 1);
}

void
Replica::rebuildEngine()
{
    engine_.reset();  // joins the old workers first

    const std::string path = store_->path(kEngineStateArtifact);
    io::loadOrRebuild(
        path, &obs_,
        [&] {
            engine_ = std::make_unique<serve::InferenceEngine>(
                *mf_, engineOpts_, serve::loadEngineState(path));
        },
        [&](const io::LoadReport &report) {
            if (report.error)
                m_.coldRecoveries.add();
            engine_ = std::make_unique<serve::InferenceEngine>(
                *mf_, engineOpts_);
            // Heal (or seed) the shared store so the next sibling can
            // warm boot. The single-writer lock keeps two replicas
            // recovering at once from interleaving the save; losing
            // the race just means someone else is already writing an
            // equivalent state.
            try {
                const io::ArtifactStore::WriteLock lock =
                    store_->lockForWrite(kEngineStateArtifact);
                serve::saveEngineState(*engine_, path);
            } catch (const io::ArtifactError &) {
            }
        });
}

void
Replica::restart()
{
    if (alive())
        return;
    if (corruptNextRestart_) {
        corruptStoredState();
        corruptNextRestart_ = false;
    }
    m_.restarts.add();
    rebuildEngine();
    missStreak_ = 0;
    breaker_.onSuccess();
    setState(ReplicaState::Recovering, "restart");
}

void
Replica::heartbeat()
{
    bool ok = false;
    if (alive()) {
        serve::Request probe;
        probe.tokens = kProbeTokens;
        probe.priority = kProbePriority;
        std::future<serve::Response> fut = submit(std::move(probe));
        // Engines resolve every future terminally, so this wait is
        // bounded by the (possibly browned-out) batch time.
        ok = fut.valid() && fut.get().status == serve::Status::Ok;
    }

    if (ok) {
        // Also returns a live replica that missed its way Down (say,
        // probes turned away by a full queue): restart() is a no-op
        // while the engine runs, so nothing else would.
        missStreak_ = 0;
        if (state_ != ReplicaState::Healthy)
            setState(ReplicaState::Healthy, "recovered");
        return;
    }

    ++missStreak_;
    m_.heartbeatMisses.add();
    if ((!alive() || missStreak_ >= kDownAfterMisses) &&
        state_ != ReplicaState::Down)
        setState(ReplicaState::Down, "probe misses");
}

void
Replica::setState(ReplicaState next, const char *why)
{
    const ReplicaState prev = state_;
    state_ = next;
    m_.state.set(static_cast<double>(next));
    if (prev == next)
        return;
    m_.stateChanges.add();

    // Lifecycle span: zero-length marker on the fleet track.
    obs::TraceSpan span;
    span.name = name_ + ":" + toString(prev) + "->" +
                toString(next);
    span.category = "fleet";
    span.pid = obs::SpanTracer::kHostPid;
    span.tid = static_cast<int>(index_);
    span.startUs = obs_.wallNowUs();
    span.durUs = 0.0;
    span.strArgs = {{"why", why}};
    obs_.tracer().record(std::move(span));
}

} // namespace fleet
} // namespace mflstm
