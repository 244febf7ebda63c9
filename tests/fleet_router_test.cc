/**
 * @file
 * Fleet router + circuit breaker unit tests (DESIGN.md §16). The
 * routing contract: only eligible replicas (not Down, breaker closed)
 * are candidates; a pinned session stays on its replica while it is
 * eligible and is re-pinned (counted as a session failover) when it
 * goes Down; round-robin cycles and least-loaded picks the shallowest
 * queue. The breaker contract: trips after kTripAfter consecutive
 * failures, holds for kCooldownTicks, then half-opens — one failure
 * re-trips immediately, one success closes fully.
 */

#include <gtest/gtest.h>

#include <set>

#include "fleet/replica.hh"
#include "fleet/router.hh"

namespace {

using namespace mflstm;
using namespace mflstm::fleet;

std::vector<ReplicaSnapshot>
healthySnaps(std::size_t n)
{
    std::vector<ReplicaSnapshot> snaps(n);
    for (std::size_t i = 0; i < n; ++i) {
        snaps[i].index = i;
        snaps[i].state = ReplicaState::Healthy;
    }
    return snaps;
}

TEST(Router, AffinityPinsAndSticks)
{
    Router router(RoutingPolicy::SessionAffinity, {});
    const auto snaps = healthySnaps(3);

    const std::size_t first = router.route("session-a", snaps);
    ASSERT_LT(first, 3u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(router.route("session-a", snaps), first);
    EXPECT_EQ(router.sessionFailovers(), 0u);
}

TEST(Router, AffinityRePinsWhenReplicaGoesDown)
{
    Router router(RoutingPolicy::SessionAffinity, {});
    auto snaps = healthySnaps(3);

    const std::size_t first = router.route("session-a", snaps);
    snaps[first].state = ReplicaState::Down;

    const std::size_t second = router.route("session-a", snaps);
    ASSERT_LT(second, 3u);
    EXPECT_NE(second, first);
    EXPECT_EQ(router.sessionFailovers(), 1u);

    // The new pin sticks even after the old replica recovers: warm
    // per-session state now lives on the new replica.
    snaps[first].state = ReplicaState::Healthy;
    EXPECT_EQ(router.route("session-a", snaps), second);
    EXPECT_EQ(router.sessionFailovers(), 1u);
}

TEST(Router, AffinityAvoidExcludesTheFailedReplica)
{
    Router router(RoutingPolicy::SessionAffinity, {});
    const auto snaps = healthySnaps(3);

    const std::size_t first = router.route("session-a", snaps);
    const std::size_t other =
        router.route("session-a", snaps, /*avoid=*/first);
    ASSERT_LT(other, 3u);
    EXPECT_NE(other, first);
}

TEST(Router, AvoidIsIgnoredWhenItIsTheOnlyCandidate)
{
    Router router(RoutingPolicy::RoundRobin, {});
    const auto snaps = healthySnaps(1);
    EXPECT_EQ(router.route("s", snaps, /*avoid=*/0), 0u);
}

TEST(Router, RoundRobinCyclesEligibleReplicas)
{
    Router router(RoutingPolicy::RoundRobin, {});
    const auto snaps = healthySnaps(3);

    std::set<std::size_t> seen;
    for (int i = 0; i < 3; ++i)
        seen.insert(router.route("any", snaps));
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Router, LeastLoadedPicksShallowestQueue)
{
    Router router(RoutingPolicy::LeastLoaded, {});
    auto snaps = healthySnaps(3);
    snaps[0].queueDepth = 5;
    snaps[1].queueDepth = 1;
    snaps[2].queueDepth = 9;
    EXPECT_EQ(router.route("s", snaps), 1u);
}

TEST(Router, DownAndOpenBreakerAreIneligible)
{
    Router router(RoutingPolicy::RoundRobin, {});
    auto snaps = healthySnaps(3);
    snaps[0].state = ReplicaState::Down;
    snaps[1].breakerOpen = true;
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(router.route("s", snaps), 2u);

    // Healthy and Recovering replicas route.
    snaps[0].state = ReplicaState::Healthy;
    snaps[1].breakerOpen = false;
    snaps[1].state = ReplicaState::Recovering;
    std::set<std::size_t> seen;
    for (int i = 0; i < 3; ++i)
        seen.insert(router.route("s", snaps));
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Router, NoEligibleReplicaReturnsSentinel)
{
    Router router(RoutingPolicy::SessionAffinity, {});
    auto snaps = healthySnaps(2);
    snaps[0].state = ReplicaState::Down;
    snaps[1].state = ReplicaState::Down;
    EXPECT_EQ(router.route("s", snaps), Router::kNoReplica);
}

TEST(Router, SloLookupFallsBackToDefault)
{
    SloClass premium;
    premium.tenant = "premium";
    premium.priority = 10;
    premium.deadlineMs = 50.0;
    Router router(RoutingPolicy::SessionAffinity, {premium});
    router.defaultSlo.priority = 0;
    router.defaultSlo.deadlineMs = 0.0;

    EXPECT_EQ(router.sloFor("premium").priority, 10);
    EXPECT_EQ(router.sloFor("premium").deadlineMs, 50.0);
    EXPECT_EQ(router.sloFor("unknown-tenant").priority, 0);
    EXPECT_EQ(router.sloFor("unknown-tenant").deadlineMs, 0.0);
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailures)
{
    static_assert(CircuitBreaker::kTripAfter == 3);
    CircuitBreaker b;

    b.onFailure();
    b.onFailure();
    EXPECT_FALSE(b.open);
    b.onFailure();
    EXPECT_TRUE(b.open);
    EXPECT_EQ(b.trips, 1u);
}

TEST(CircuitBreaker, SuccessResetsTheStreak)
{
    CircuitBreaker b;
    b.onFailure();
    b.onFailure();
    b.onSuccess();
    b.onFailure();
    b.onFailure();
    EXPECT_FALSE(b.open);
}

/** A breaker tripped by kTripAfter consecutive failures. */
CircuitBreaker
trippedBreaker()
{
    CircuitBreaker b;
    for (int i = 0; i < CircuitBreaker::kTripAfter; ++i)
        b.onFailure();
    return b;
}

TEST(CircuitBreaker, CooldownHalfOpensThenRetripsOnFailure)
{
    static_assert(CircuitBreaker::kCooldownTicks == 2);
    CircuitBreaker b = trippedBreaker();
    ASSERT_TRUE(b.open);

    b.tick();
    EXPECT_TRUE(b.open);  // still cooling down
    b.tick();
    EXPECT_FALSE(b.open);  // half-open: probing allowed

    // One failure in half-open re-trips without a fresh streak.
    b.onFailure();
    EXPECT_TRUE(b.open);
    EXPECT_EQ(b.trips, 2u);
}

TEST(CircuitBreaker, CooldownHalfOpensThenClosesOnSuccess)
{
    CircuitBreaker b = trippedBreaker();
    for (std::uint64_t t = 0; t < CircuitBreaker::kCooldownTicks; ++t)
        b.tick();
    ASSERT_FALSE(b.open);

    b.onSuccess();
    EXPECT_EQ(b.consecutiveFailures, 0);
    // A single failure no longer trips: the close was full.
    b.onFailure();
    EXPECT_FALSE(b.open);
}

TEST(ReplicaState, ToStringCoversEveryState)
{
    EXPECT_STREQ(toString(ReplicaState::Healthy), "healthy");
    EXPECT_STREQ(toString(ReplicaState::Down), "down");
    EXPECT_STREQ(toString(ReplicaState::Recovering), "recovering");
}

} // namespace
