/**
 * @file
 * Fleet chaos acceptance gate (DESIGN.md §16): drive a replicated
 * serving fleet through the standard seeded chaos schedule — one
 * crash, one brownout, one corrupt warm-state restart, one flash
 * crowd — across a matrix of scenarios x routing policies x replica
 * counts, with the fleet's two robustness moves (failover re-dispatch
 * and parking) on and, as the control arm, off. Exit 1 unless:
 *
 *  - zero requests are lost in EVERY run: everything submitted
 *    reaches a terminal response, failover on or off;
 *  - with failover on, chaos costs nothing terminal: failed == 0 and
 *    availability >= 99% in every chaos run (steady runs must be
 *    100%);
 *  - with failover off, the same chaos schedule produces terminal
 *    failures (failed > 0, availability < 99%) — the machinery is
 *    load-bearing, not vacuous;
 *  - every chaos plan replays bit-identically when regenerated from
 *    the recorded seed (describe() equality).
 *
 * The seed is recorded in BENCH_fleet_chaos.json so any failure can
 * be replayed exactly: `bench_fleet_chaos <seed>` with the recorded
 * value reruns the same schedule.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "fleet/fleet.hh"
#include "harness.hh"

namespace {

using namespace mflstm;
using namespace mflstm::bench;

constexpr std::uint64_t kTicks = 16;
/// base arrivals per tick; flash crowds burst on top
constexpr std::size_t kPerTick = 4;
/// quiet ticks after the horizon so restarts land before the drain
constexpr int kCooldownTicks = 6;

struct RunResult
{
    std::string scenario;  ///< steady | chaos
    std::string policy;
    std::size_t replicas = 0;
    bool failover = true;
    fleet::Fleet::Stats stats;
    double availability = 0.0;
    std::uint64_t lost = 0;
    bool replayOk = true;  ///< chaos plan == regenerated-from-seed
};

RunResult
runOne(const core::MemoryFriendlyLstm &mf, const AppContext &app,
       fleet::RoutingPolicy policy, std::size_t replicas, bool chaos,
       bool failover, std::uint64_t seed, const std::string &store_dir)
{
    fleet::FleetOptions fo;
    fo.replicas = replicas;
    fo.policy = policy;
    fo.failover = failover;
    fo.storeDir = store_dir;
    // Serialise each replica (one worker, singleton batches) so a
    // crash always finds queued work to strand / fail over — the
    // difference the two arms of the gate measure.
    fo.engine.maxBatch = 1;
    fo.engine.workers = 1;
    fo.slos.push_back(fleet::SloClass{"interactive", 10, 0.0});
    fo.slos.push_back(fleet::SloClass{"batch", 0, 0.0});

    fleet::Fleet f(mf, fo);
    if (chaos)
        f.setChaosPlan(fleet::ChaosPlan::standard(seed, replicas, kTicks));

    const auto seqs = app.data.calibrationSequences(kCalibrationSeqs);
    std::size_t next = 0;
    auto submit_one = [&] {
        fleet::FleetRequest req;
        req.tokens = seqs[next % seqs.size()];
        req.sessionId = "session-" + std::to_string(next % 12);
        req.tenant = next % 2 == 0 ? "interactive" : "batch";
        f.submit(std::move(req));
        ++next;
    };

    // Submit before ticking: a crash event lands on a replica whose
    // queue still holds this tick's arrivals.
    for (std::uint64_t t = 0; t < kTicks; ++t) {
        for (std::size_t k = 0; k < kPerTick; ++k)
            submit_one();
        const fleet::Fleet::TickReport rep = f.tick();
        for (std::size_t k = 0; k < rep.flashCrowdBurst; ++k)
            submit_one();
    }
    for (int t = 0; t < kCooldownTicks; ++t)
        f.tick();
    f.drain();

    RunResult r;
    r.scenario = chaos ? "chaos" : "steady";
    r.policy = fleet::toString(policy);
    r.replicas = replicas;
    r.failover = failover;
    r.stats = f.stats();
    r.availability = f.availability();
    r.lost = r.stats.submitted - r.stats.completed;
    if (chaos) {
        // The replay check: the recorded seed regenerates the exact
        // schedule that ran (describe() is the canonical identity).
        const fleet::ChaosPlan regen =
            fleet::ChaosPlan::standard(seed, replicas, kTicks);
        r.replayOk = regen == f.chaosPlan() &&
                     regen.describe() == f.chaosPlan().describe();
    }
    f.shutdown();
    return r;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 42;
    if (argc > 1) {
        char *end = nullptr;
        seed = std::strtoull(argv[1], &end, 10);
        if (end == argv[1] || *end != '\0') {
            std::fprintf(stderr, "usage: bench_fleet_chaos [seed]\n");
            return 2;
        }
    }

    const AppContext app = makeApp(workloads::tableII().front());
    auto mf = makeCalibrated(app);
    auto ladder = mf->calibration().ladder();
    mf->setThresholds(ladder[ladder.size() / 2]);
    evalAccuracy(*mf, app);

    // One shared store across the matrix: the first run seeds it, the
    // rest warm-boot (corrupt-restart events heal it before exiting).
    const std::string store_dir =
        (std::filesystem::temp_directory_path() /
         ("mflstm_bench_fleet_store_" + std::to_string(seed)))
            .string();
    std::filesystem::remove_all(store_dir);

    const fleet::RoutingPolicy policies[] = {
        fleet::RoutingPolicy::SessionAffinity,
        fleet::RoutingPolicy::RoundRobin,
        fleet::RoutingPolicy::LeastLoaded,
    };
    const std::size_t replicaCounts[] = {2, 3};

    std::printf("Fleet chaos gate: %s, seed %llu, %llu ticks, "
                "%zu arrivals/tick + flash crowds\n",
                app.spec.name.c_str(),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(kTicks), kPerTick);
    rule('=');
    std::printf("%-7s %-13s %2s %-4s | %5s %5s %5s %4s | %6s | %5s %5s "
                "| %s\n",
                "scen", "policy", "N", "fo", "sub", "done", "ok",
                "fail", "avail", "fovr", "park", "replay");
    rule();

    BenchReport rep("fleet_chaos");
    rep.config("app", app.spec.name);
    rep.config("chaos_seed", std::to_string(seed));
    rep.config("ticks", std::to_string(kTicks));
    rep.config("per_tick", std::to_string(kPerTick));
    rep.config("plan",
               fleet::ChaosPlan::standard(seed, 2, kTicks).describe());

    std::vector<RunResult> results;
    for (bool chaos : {false, true}) {
        for (const fleet::RoutingPolicy policy : policies) {
            for (const std::size_t n : replicaCounts) {
                // The failover-off control arm only means something
                // under chaos; steady runs never fail either way.
                for (const bool failover :
                     chaos ? std::vector<bool>{true, false}
                           : std::vector<bool>{true}) {
                    const RunResult r =
                        runOne(*mf, app, policy, n, chaos, failover,
                               seed, store_dir);
                    results.push_back(r);
                    std::printf(
                        "%-7s %-13s %2zu %-4s | %5llu %5llu %5llu "
                        "%4llu | %5.1f%% | %5llu %5llu | %s\n",
                        r.scenario.c_str(), r.policy.c_str(),
                        r.replicas, r.failover ? "on" : "off",
                        static_cast<unsigned long long>(
                            r.stats.submitted),
                        static_cast<unsigned long long>(
                            r.stats.completed),
                        static_cast<unsigned long long>(r.stats.ok),
                        static_cast<unsigned long long>(r.stats.failed),
                        r.availability * 100.0,
                        static_cast<unsigned long long>(
                            r.stats.failovers),
                        static_cast<unsigned long long>(r.stats.parked),
                        r.replayOk ? "yes" : "NO");
                }
            }
        }
    }
    rule();

    bool zero_lost = true;
    bool failover_holds = true;
    bool control_fails = true;
    bool replay_ok = true;
    for (const RunResult &r : results) {
        const std::string key = r.scenario + "." + r.policy + ".r" +
                                std::to_string(r.replicas) +
                                (r.failover ? ".failover"
                                            : ".no_failover");
        rep.metric(key + ".submitted",
                   static_cast<double>(r.stats.submitted));
        rep.metric(key + ".completed",
                   static_cast<double>(r.stats.completed));
        rep.metric(key + ".ok", static_cast<double>(r.stats.ok));
        rep.metric(key + ".failed", static_cast<double>(r.stats.failed));
        rep.metric(key + ".lost", static_cast<double>(r.lost));
        rep.metric(key + ".availability", r.availability);
        rep.metric(key + ".failovers",
                   static_cast<double>(r.stats.failovers));
        rep.metric(key + ".parked", static_cast<double>(r.stats.parked));
        rep.metric(key + ".replay_ok", r.replayOk ? 1.0 : 0.0);

        zero_lost = zero_lost && r.lost == 0;
        replay_ok = replay_ok && r.replayOk;
        if (r.failover) {
            const double floor =
                r.scenario == "steady" ? 1.0 : 0.99;
            failover_holds = failover_holds && r.stats.failed == 0 &&
                             r.availability >= floor;
        } else {
            control_fails = control_fails && r.stats.failed > 0 &&
                            r.availability < 0.99;
        }
    }

    const bool pass =
        zero_lost && failover_holds && control_fails && replay_ok;
    std::printf("zero lost requests (all runs):            %s\n",
                zero_lost ? "yes" : "NO");
    std::printf("failover on: failed==0, avail>=99%%:       %s\n",
                failover_holds ? "yes" : "NO");
    std::printf("failover off: terminal failures present:  %s\n",
                control_fails ? "yes" : "NO");
    std::printf("chaos plan replays from recorded seed:    %s\n",
                replay_ok ? "yes" : "NO");
    std::printf("gate: %s\n", pass ? "PASS" : "FAIL");
    rep.metric("gate.zero_lost", zero_lost ? 1.0 : 0.0);
    rep.metric("gate.failover_holds", failover_holds ? 1.0 : 0.0);
    rep.metric("gate.control_fails", control_fails ? 1.0 : 0.0);
    rep.metric("gate.replay_ok", replay_ok ? 1.0 : 0.0);
    rep.metric("gate.pass", pass ? 1.0 : 0.0);
    rep.write();

    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
    return pass ? 0 : 1;
}
