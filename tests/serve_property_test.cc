/**
 * @file
 * Property-based tests for the bounded RequestQueue (DESIGN.md §10).
 * A seeded random op-mix (push / popWait / drain) runs
 * against a reference model under every admission policy, checking the
 * structural invariants the engine's exactly-once promise contract
 * rests on:
 *
 *   - the queue never holds more than its capacity;
 *   - every pushed item leaves the queue through exactly one exit
 *     (pop, drain, bounce, eviction, or the final close drain);
 *   - pops come out priority-descending with FIFO ties;
 *   - the high-water mark never exceeds the capacity.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <random>
#include <vector>

#include "serve/queue.hh"

namespace {

using namespace mflstm;
using namespace mflstm::serve;

QueuedRequest
makeItem(std::uint64_t seq, int priority)
{
    QueuedRequest item;
    item.request.tokens = {1};
    item.request.priority = priority;
    item.id = seq + 1;
    item.seq = seq;
    item.enqueued = std::chrono::steady_clock::now();
    return item;
}

/// Where each pushed seq ended up; every seq must land exactly once.
enum class Exit
{
    Popped,
    Drained,
    Bounced,   // push rejected, the new item came back
    Evicted,   // DropOldest victim, came back through bounced
};

struct RandomRun
{
    std::size_t pushed = 0;
    std::map<std::uint64_t, Exit> exits;

    void record(std::uint64_t seq, Exit e)
    {
        ASSERT_TRUE(exits.emplace(seq, e).second)
            << "seq " << seq << " left the queue twice";
    }
};

void
runRandomOps(AdmissionPolicy policy, std::uint64_t seed, RandomRun &run)
{
    constexpr std::size_t kCapacity = 8;
    constexpr std::size_t kOps = 600;

    // A short block timeout keeps BlockWithTimeout runs fast: this is
    // single-threaded, so a blocked push can only ever time out.
    RequestQueue q({kCapacity, policy, 0.05});
    std::mt19937_64 rng(seed);
    std::uint64_t next_seq = 0;

    for (std::size_t op = 0; op < kOps; ++op) {
        ASSERT_LE(q.size(), kCapacity);
        const int roll = static_cast<int>(rng() % 10);
        if (roll < 6) {  // push (the majority, to exercise overload)
            const std::uint64_t seq = next_seq++;
            const int priority = static_cast<int>(rng() % 4);
            ++run.pushed;

            std::vector<QueuedRequest> bounced;
            const auto outcome =
                q.push(makeItem(seq, priority), &bounced);
            ASSERT_NE(outcome, RequestQueue::PushOutcome::Closed);
            if (outcome == RequestQueue::PushOutcome::RejectedCapacity) {
                ASSERT_EQ(bounced.size(), 1u);
                ASSERT_EQ(bounced[0].seq, seq);
                run.record(seq, Exit::Bounced);
            } else {
                for (QueuedRequest &victim : bounced) {
                    ASSERT_EQ(policy, AdmissionPolicy::DropOldest);
                    run.record(victim.seq, Exit::Evicted);
                }
            }
        } else if (roll < 8) {  // pop one (never blocks: queue nonempty
                                // or we skip)
            if (q.size() == 0)
                continue;
            QueuedRequest out;
            ASSERT_TRUE(q.popWait(out));
            run.record(out.seq, Exit::Popped);
        } else {  // drain a few
            std::vector<QueuedRequest> out;
            const std::size_t want = 1 + rng() % 4;
            const std::size_t got = q.drain(out, want);
            ASSERT_EQ(got, out.size());
            ASSERT_LE(got, want);
            for (QueuedRequest &item : out) {
                run.record(item.seq, Exit::Drained);
            }
        }
    }

    // Close drains the remainder: whatever is still queued must come
    // out exactly once more, and then the queue is empty forever.
    q.close();
    for (;;) {
        QueuedRequest out;
        if (!q.popWait(out))
            break;
        run.record(out.seq, Exit::Popped);
    }
    ASSERT_EQ(q.size(), 0u);

    // Conservation: every pushed seq exited exactly once.
    ASSERT_EQ(run.exits.size(), run.pushed);

    EXPECT_LE(q.highWater(), kCapacity);
}

class QueueProperty
    : public ::testing::TestWithParam<AdmissionPolicy>
{};

TEST_P(QueueProperty, RandomOpsPreserveInvariants)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        RandomRun run;
        runRandomOps(GetParam(), seed, run);
        if (::testing::Test::HasFatalFailure())
            FAIL() << "policy " << toString(GetParam()) << " seed "
                   << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, QueueProperty,
    ::testing::Values(AdmissionPolicy::RejectNew,
                      AdmissionPolicy::DropOldest,
                      AdmissionPolicy::BlockWithTimeout),
    [](const auto &info) -> std::string {
        switch (info.param) {
        case AdmissionPolicy::RejectNew:
            return "RejectNew";
        case AdmissionPolicy::DropOldest:
            return "DropOldest";
        case AdmissionPolicy::BlockWithTimeout:
            return "BlockWithTimeout";
        }
        return "Unknown";
    });

// Pop order is a property of the heap, not of any one op-mix: pour a
// random population in (unbounded, so admission can't interfere),
// drain it all, and check priority-descending with FIFO ties.
TEST(QueueProperty, DrainOrderIsPriorityDescFifoTied)
{
    for (std::uint64_t seed = 100; seed < 106; ++seed) {
        RequestQueue q;
        std::mt19937_64 rng(seed);
        const std::size_t n = 50 + rng() % 100;
        std::map<std::uint64_t, int> prio;
        for (std::uint64_t s = 0; s < n; ++s) {
            const int p = static_cast<int>(rng() % 5);
            prio[s] = p;
            ASSERT_EQ(q.push(makeItem(s, p)),
                      RequestQueue::PushOutcome::Admitted);
        }

        std::vector<QueuedRequest> out;
        ASSERT_EQ(q.drain(out, n), n);
        for (std::size_t i = 1; i < out.size(); ++i) {
            const int pa = prio[out[i - 1].seq];
            const int pb = prio[out[i].seq];
            ASSERT_GE(pa, pb) << "seed " << seed << " position " << i;
            if (pa == pb) {
                ASSERT_LT(out[i - 1].seq, out[i].seq)
                    << "FIFO tie broken at position " << i;
            }
        }
    }
}

} // namespace
