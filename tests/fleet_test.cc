/**
 * @file
 * End-to-end fleet tests (DESIGN.md §16) with real engines: replica 0
 * seeds the shared artifact store and siblings warm-boot from it with
 * bit-identical outputs; a crash fails queued work over to a survivor
 * with zero lost requests; a corrupt warm-state restart quarantines
 * the artifact, counts one rejection and cold-rebuilds; a request with
 * no eligible replica parks until one recovers, and drain() fails it
 * when none ever does; an open breaker moves a pinned session to a
 * sibling; a live replica whose probes were turned away returns on an
 * ok probe; the governor ladder redistributes over survivors one rung
 * at a time; and a full ChaosPlan::standard run completes every
 * submitted request.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "fleet/fleet.hh"
#include "support/metrics.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm;

nn::ModelConfig
clsConfig()
{
    nn::ModelConfig cfg;
    cfg.task = nn::TaskKind::Classification;
    cfg.vocab = 20;
    cfg.embedSize = 8;
    cfg.hiddenSize = 12;
    cfg.numLayers = 2;
    cfg.numClasses = 2;
    return cfg;
}

std::vector<std::vector<std::int32_t>>
seqs(std::size_t n, std::size_t len, std::uint64_t seed)
{
    tensor::Rng rng(seed);
    std::vector<std::vector<std::int32_t>> out(n);
    for (auto &s : out)
        for (std::size_t t = 0; t < len; ++t)
            s.push_back(static_cast<std::int32_t>(rng.integer(0, 19)));
    return out;
}

class FleetTest : public ::testing::Test
{
  protected:
    FleetTest()
        : model(clsConfig(), 77),
          mf(model, {gpu::GpuConfig::tegraX1(),
                     runtime::NetworkShape::stacked(512, 512, 2, 40)})
    {
        mf.calibrate(seqs(4, 8, 5));
        const auto ladder = mf.calibration().ladder();
        mf.setThresholds(ladder[ladder.size() / 2]);
        for (const auto &s : seqs(4, 8, 11))
            mf.runner().classify(s);
    }

    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("mflstm_fleet_test_" + std::to_string(::getpid()) +
                "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    fleet::FleetOptions fleetOptions() const
    {
        fleet::FleetOptions o;
        o.replicas = 2;
        o.storeDir = (dir_ / "store").string();
        o.engine.maxBatch = 4;
        o.engine.workers = 1;
        o.engine.plan = runtime::PlanKind::Combined;
        return o;
    }

    /**
     * Session ids whose affinity hash pins them to @p replica, pinned
     * in the router as a side effect (so later submits stick).
     */
    std::vector<std::string> sessionsPinnedTo(fleet::Fleet &fleet,
                                              std::size_t replica,
                                              std::size_t want)
    {
        std::vector<fleet::ReplicaSnapshot> snaps(2);
        snaps[0].index = 0;
        snaps[1].index = 1;
        std::vector<std::string> out;
        for (int i = 0; out.size() < want && i < 256; ++i) {
            const std::string sid = "session-" + std::to_string(i);
            if (fleet.router().route(sid, snaps) == replica)
                out.push_back(sid);
        }
        return out;
    }

    /** Serve @p tokens on replica @p replica directly, bypassing the
     *  router: what that replica's engine answers. */
    static serve::Response serveOn(fleet::Fleet &fleet,
                                   std::size_t replica,
                                   const std::vector<std::int32_t> &tokens)
    {
        serve::Request req;
        req.tokens = tokens;
        return fleet.replica(replica).submit(std::move(req)).get();
    }

    nn::LstmModel model;
    core::MemoryFriendlyLstm mf;
    std::filesystem::path dir_;
};

TEST_F(FleetTest, BootSeedsStoreAndServesBitIdentically)
{
    fleet::Fleet fleet(mf, fleetOptions());
    EXPECT_EQ(fleet.replicaCount(), 2u);

    // Replica 0 seeded the shared store; replica 1 warm-booted from
    // it (no cold recovery was needed on either side).
    EXPECT_TRUE(std::filesystem::exists(
        fleet.store().path(fleet::kEngineStateArtifact)));
    EXPECT_EQ(fleet.replica(0).counters().coldRecoveries, 0u);
    EXPECT_EQ(fleet.replica(1).counters().coldRecoveries, 0u);

    // Whichever replica serves a request, the logits are bit-identical
    // to a solo runner (warm boot preserves the plan/ladder exactly).
    core::ApproxRunner solo = mf.runner();
    const auto inputs = seqs(8, 10, 23);
    for (std::size_t replica = 0; replica < 2; ++replica) {
        for (const auto &s : inputs) {
            const serve::Response r = serveOn(fleet, replica, s);
            EXPECT_EQ(r.status, serve::Status::Ok);
            EXPECT_EQ(r.logits, solo.classify(s)) << "replica " << replica;
        }
    }

    // Routed through the fleet, every request completes Ok.
    for (std::size_t i = 0; i < inputs.size(); ++i)
        fleet.submit({inputs[i], "session-" + std::to_string(i), ""});
    fleet.drain();
    EXPECT_EQ(fleet.stats().submitted, inputs.size());
    EXPECT_EQ(fleet.stats().completed, inputs.size());
    EXPECT_EQ(fleet.stats().ok, inputs.size());
    EXPECT_DOUBLE_EQ(fleet.availability(), 1.0);
}

TEST_F(FleetTest, CrashFailsQueuedWorkOverWithZeroLoss)
{
    auto opts = fleetOptions();
    opts.engine.maxBatch = 1;  // keep work queued on the victim
    fleet::Fleet fleet(mf, opts);

    const auto on_r0 = sessionsPinnedTo(fleet, 0, 4);
    ASSERT_EQ(on_r0.size(), 4u);

    // Slow the victim so its queue is guaranteed non-empty at the
    // kill, then strand the queued requests.
    fleet.replica(0).setBrownout(30.0);
    const auto inputs = seqs(4, 10, 31);
    std::size_t submitted = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        fleet::FleetRequest req;
        req.tokens = inputs[i];
        req.sessionId = on_r0[i];
        fleet.submit(req);
        ++submitted;
    }
    fleet.replica(0).kill(/*corrupt_state=*/false);
    EXPECT_FALSE(fleet.replica(0).alive());
    EXPECT_EQ(fleet.replica(0).state(), fleet::ReplicaState::Down);

    fleet.drain();

    // Zero lost: every accepted request reached a terminal response,
    // and the stranded ones were re-dispatched to the survivor.
    EXPECT_EQ(fleet.stats().completed, submitted);
    EXPECT_EQ(fleet.stats().ok, submitted);
    EXPECT_EQ(fleet.stats().failed, 0u);
    EXPECT_GE(fleet.stats().failovers, 1u);
    EXPECT_DOUBLE_EQ(fleet.availability(), 1.0);
    EXPECT_GE(fleet.observer()
                  .metrics()
                  .counter("fleet.failover_total")
                  .value(),
              1.0);
}

TEST_F(FleetTest, WithoutFailoverStrandedRequestsFailTerminally)
{
    auto opts = fleetOptions();
    opts.failover = false;
    opts.engine.maxBatch = 1;
    fleet::Fleet fleet(mf, opts);

    const auto on_r0 = sessionsPinnedTo(fleet, 0, 4);
    ASSERT_EQ(on_r0.size(), 4u);

    fleet.replica(0).setBrownout(30.0);
    const auto inputs = seqs(4, 10, 31);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        fleet::FleetRequest req;
        req.tokens = inputs[i];
        req.sessionId = on_r0[i];
        fleet.submit(req);
    }
    fleet.replica(0).kill(/*corrupt_state=*/false);
    fleet.drain();

    // Still zero *lost* — every future resolved — but the strands are
    // terminal failures: the control experiment the bench gate runs.
    EXPECT_EQ(fleet.stats().completed, inputs.size());
    EXPECT_GE(fleet.stats().failed, 1u);
    EXPECT_EQ(fleet.stats().ok + fleet.stats().failed, inputs.size());
    EXPECT_EQ(fleet.stats().failovers, 0u);
    EXPECT_LT(fleet.availability(), 1.0);
}

TEST_F(FleetTest, CorruptRestartQuarantinesAndColdRebuilds)
{
    fleet::Fleet fleet(mf, fleetOptions());

    fleet.replica(0).kill(/*corrupt_state=*/true);
    fleet.replica(0).restart();

    // The restart hit the corrupted artifact: quarantine-and-recompute
    // (DESIGN.md §11) — the damaged file is set aside, the replica
    // cold-rebuilds and heals the shared store.
    EXPECT_EQ(fleet.replica(0).counters().restarts, 1u);
    EXPECT_EQ(fleet.replica(0).counters().coldRecoveries, 1u);
    EXPECT_EQ(fleet.replica(0).state(), fleet::ReplicaState::Recovering);
    const std::string artifact =
        fleet.store().path(fleet::kEngineStateArtifact);
    EXPECT_TRUE(std::filesystem::exists(artifact + ".corrupt"));
    EXPECT_TRUE(std::filesystem::exists(
        fleet.store().path(fleet::kEngineStateArtifact)));
    EXPECT_GE(fleet.observer()
                  .metrics()
                  .counter("fleet.cold_recovery_total",
                           {{"replica", "r0"}})
                  .value(),
              1.0);
    // The checksum failure is one rejection, counted once by
    // io::loadOrRebuild.
    EXPECT_EQ(fleet.observer()
                  .metrics()
                  .counter("artifact_load_rejected_total")
                  .value(),
              1.0);

    // One clean probe brings it back, and the cold-rebuilt replica
    // still serves bit-identical outputs.
    fleet.replica(0).heartbeat();
    EXPECT_EQ(fleet.replica(0).state(), fleet::ReplicaState::Healthy);

    core::ApproxRunner solo = mf.runner();
    const auto input = seqs(1, 10, 41).front();
    const serve::Response r = serveOn(fleet, 0, input);
    EXPECT_EQ(r.status, serve::Status::Ok);
    EXPECT_EQ(r.logits, solo.classify(input));
}

TEST_F(FleetTest, UnroutableRequestParksUntilAReplicaRecovers)
{
    fleet::Fleet fleet(mf, fleetOptions());
    fleet.replica(0).kill(/*corrupt_state=*/false);
    fleet.replica(1).kill(/*corrupt_state=*/false);

    // No eligible replica: the request is accepted and parked, not
    // failed.
    fleet.submit({seqs(1, 10, 61).front(), "session-0", ""});
    EXPECT_EQ(fleet.stats().parked, 1u);
    EXPECT_EQ(fleet.stats().completed, 0u);
    EXPECT_EQ(fleet.pendingCount(), 1u);

    // A recovered replica picks it up on the next pump.
    fleet.replica(0).restart();
    fleet.drain();
    EXPECT_EQ(fleet.stats().completed, 1u);
    EXPECT_EQ(fleet.stats().ok, 1u);
    EXPECT_EQ(fleet.stats().failed, 0u);
}

TEST_F(FleetTest, DrainFailsParkedRequestsWhenNoReplicaReturns)
{
    fleet::Fleet fleet(mf, fleetOptions());
    fleet.replica(0).kill(/*corrupt_state=*/false);
    fleet.replica(1).kill(/*corrupt_state=*/false);

    fleet.submit({seqs(1, 10, 67).front(), "session-0", ""});
    ASSERT_EQ(fleet.stats().parked, 1u);

    // Nothing ever restarts: the stall guard resolves the parked
    // request Failed, so drain() returns with nothing lost.
    fleet.drain();
    EXPECT_EQ(fleet.pendingCount(), 0u);
    EXPECT_EQ(fleet.stats().completed, fleet.stats().submitted);
    EXPECT_EQ(fleet.stats().failed, 1u);
    EXPECT_EQ(fleet.stats().ok, 0u);
}

TEST_F(FleetTest, OpenBreakerMovesPinnedSessionToSibling)
{
    fleet::Fleet fleet(mf, fleetOptions());
    const auto on_r0 = sessionsPinnedTo(fleet, 0, 1);
    ASSERT_EQ(on_r0.size(), 1u);

    // r0 stays alive and Healthy; only its breaker is open.
    for (int i = 0; i < fleet::CircuitBreaker::kTripAfter; ++i)
        fleet.replica(0).breaker().onFailure();
    ASSERT_TRUE(fleet.replica(0).breaker().open);
    ASSERT_EQ(fleet.replica(0).state(), fleet::ReplicaState::Healthy);

    fleet.submit({seqs(1, 10, 71).front(), on_r0.front(), ""});
    fleet.drain();

    obs::MetricsRegistry &m = fleet.observer().metrics();
    EXPECT_EQ(m.counter("fleet.dispatch_total", {{"replica", "r0"}})
                  .value(),
              0.0);
    EXPECT_EQ(m.counter("fleet.dispatch_total", {{"replica", "r1"}})
                  .value(),
              1.0);
    EXPECT_EQ(fleet.router().sessionFailovers(), 1u);
    EXPECT_EQ(fleet.stats().ok, 1u);
}

TEST_F(FleetTest, LiveReplicaThatMissedItsWayDownReturnsOnAnOkProbe)
{
    auto opts = fleetOptions();
    opts.engine.maxBatch = 1;
    opts.engine.queueCapacity = 1;
    opts.engine.admission = serve::AdmissionPolicy::RejectNew;
    fleet::Fleet fleet(mf, opts);

    // A browned-out r0 holds one request in service and one queued, so
    // its single queue slot is taken and both probes are turned away.
    fleet.replica(0).setBrownout(100.0);
    serve::Request req;
    req.tokens = seqs(1, 10, 73).front();
    std::future<serve::Response> a = fleet.replica(0).submit(req);
    while (fleet.replica(0).queueDepth() != 0)
        std::this_thread::yield();  // the worker has taken a
    std::future<serve::Response> b = fleet.replica(0).submit(req);
    for (int i = 0; i < fleet::kDownAfterMisses; ++i)
        fleet.replica(0).heartbeat();
    ASSERT_EQ(fleet.replica(0).state(), fleet::ReplicaState::Down);
    ASSERT_TRUE(fleet.replica(0).alive());

    // The engine never died, so no restart is coming: the first probe
    // that comes back Ok returns it to service.
    a.get();
    b.get();
    fleet.replica(0).setBrownout(0.0);
    fleet.replica(0).heartbeat();
    EXPECT_EQ(fleet.replica(0).state(), fleet::ReplicaState::Healthy);
}

TEST_F(FleetTest, GovernorFloorRedistributesOverSurvivors)
{
    auto opts = fleetOptions();
    opts.engine.governorLadder = mf.calibration().ladder();
    opts.engine.planningSequences = seqs(2, 8, 5);
    const std::size_t rungs = opts.engine.governorLadder.size();
    ASSERT_GE(rungs, 2u);
    fleet::Fleet fleet(mf, opts);

    serve::InferenceEngine &survivor = *fleet.replica(1).engine();
    EXPECT_EQ(survivor.activeRung(), 0u);

    fleet.replica(0).kill(/*corrupt_state=*/false);

    // One replica of two is down: the survivor pre-degrades along the
    // ladder to ceil((rungs-1)/2). The climb is monotone and stops at
    // the floor; the never-skip invariant shows in the step counters
    // (every recorded transition is exactly one rung, so their
    // difference equals the final rung).
    const std::size_t floor =
        std::min(rungs - 1, ((rungs - 1) * 1 + 2 - 1) / 2);
    std::size_t prev = survivor.activeRung();
    for (std::size_t t = 0; t < rungs + 2; ++t) {
        fleet.tick();
        const std::size_t cur = survivor.activeRung();
        EXPECT_GE(cur, prev) << "relaxed below the floor climb";
        EXPECT_LE(cur, floor) << "overshot the floor at tick " << t;
        prev = cur;
    }
    EXPECT_EQ(prev, floor);
    const serve::InferenceEngine::Stats st = survivor.stats();
    EXPECT_EQ(st.governorStepsUp - st.governorStepsDown,
              static_cast<std::uint64_t>(prev));
    EXPECT_DOUBLE_EQ(fleet.observer()
                         .metrics()
                         .gauge("fleet.governor_floor")
                         .value(),
                     static_cast<double>(floor));

    // Recovery lowers the floor again.
    fleet.replica(0).restart();
    fleet.replica(0).heartbeat();
    ASSERT_EQ(fleet.replica(0).state(), fleet::ReplicaState::Healthy);
    fleet.tick();
    EXPECT_DOUBLE_EQ(fleet.observer()
                         .metrics()
                         .gauge("fleet.governor_floor")
                         .value(),
                     0.0);
}

TEST_F(FleetTest, StandardChaosPlanCompletesEverythingSubmitted)
{
    fleet::Fleet fleet(mf, fleetOptions());
    fleet.setChaosPlan(fleet::ChaosPlan::standard(9, 2, 16));

    // Replay check: regenerating from the recorded seed is
    // bit-identical (what the bench gate asserts from its JSON).
    EXPECT_EQ(fleet.chaosPlan().describe(),
              fleet::ChaosPlan::standard(9, 2, 16).describe());

    const auto inputs = seqs(64, 8, 51);
    std::size_t next = 0;
    std::size_t applied = 0;
    for (std::uint64_t t = 0; t < 16; ++t) {
        const fleet::Fleet::TickReport report = fleet.tick();
        applied += report.applied.size();
        // One steady arrival per tick plus the flash-crowd burst.
        for (std::size_t k = 0; k < 1 + report.flashCrowdBurst; ++k) {
            fleet.submit({inputs[next % inputs.size()],
                          "session-" + std::to_string(next % 6),
                          next % 2 == 0 ? "batch" : "interactive"});
            ++next;
        }
    }
    EXPECT_EQ(applied, 4u);  // crash, brownout, corrupt, flash crowd

    // A few quiet ticks let scheduled restarts land, then drain.
    for (int t = 0; t < 4; ++t)
        fleet.tick();
    fleet.drain();

    // The headline invariant: zero lost requests — every submit got a
    // terminal response — and with failover on, nothing failed.
    EXPECT_EQ(fleet.stats().submitted, next);
    EXPECT_EQ(fleet.stats().completed, next);
    EXPECT_EQ(fleet.stats().failed, 0u);
    EXPECT_DOUBLE_EQ(fleet.availability(), 1.0);
    EXPECT_DOUBLE_EQ(fleet.observer()
                         .metrics()
                         .counter("fleet.chaos_applied_total")
                         .value(),
                     4.0);
    // The corrupt-restart event forced one quarantine-and-recompute.
    const double cold =
        fleet.observer()
            .metrics()
            .counter("fleet.cold_recovery_total", {{"replica", "r0"}})
            .value() +
        fleet.observer()
            .metrics()
            .counter("fleet.cold_recovery_total", {{"replica", "r1"}})
            .value();
    EXPECT_GE(cold, 1.0);

    // stats() and the per-replica counts equal the series the metrics
    // sink dumps.
    const obs::MetricsRegistry &m = fleet.observer().metrics();
    const auto series = [&m](const std::string &name) {
        return test::dumpedCounter(m, name);
    };
    const fleet::Fleet::Stats st = fleet.stats();
    EXPECT_EQ(series("fleet.submitted_total"), st.submitted);
    EXPECT_EQ(series("fleet.completed_total"), st.completed);
    EXPECT_EQ(series("fleet.ok_total"), st.ok);
    EXPECT_EQ(series("fleet.failed_total"), st.failed);
    EXPECT_EQ(series("fleet.failover_total"), st.failovers);
    EXPECT_EQ(series("fleet.parked_total"), st.parked);
    EXPECT_EQ(st.ok, next);
    std::uint64_t kills = 0;
    for (std::size_t i = 0; i < fleet.replicaCount(); ++i) {
        fleet::Replica &r = fleet.replica(i);
        const fleet::Replica::Counters c = r.counters();
        const std::string label = "{replica=\"" + r.name() + "\"}";
        EXPECT_EQ(series("fleet.killed_total" + label), c.kills);
        EXPECT_EQ(series("fleet.restart_total" + label), c.restarts);
        EXPECT_EQ(series("fleet.cold_recovery_total" + label),
                  c.coldRecoveries);
        EXPECT_EQ(series("fleet.heartbeat_miss_total" + label),
                  c.heartbeatMisses);
        kills += c.kills;
    }
    EXPECT_EQ(kills, 2u);  // the crash and the corrupt restart
}

} // namespace
