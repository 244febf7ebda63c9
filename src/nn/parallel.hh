/**
 * @file
 * The sequence-parallel driver of the accuracy loops (DESIGN.md §18
 * "Sequence-parallel evaluation"): independent test or calibration
 * sequences run on every hardware thread, each worker adding into its
 * own accumulators, which are then merged in worker order.
 */

#ifndef MFLSTM_NN_PARALLEL_HH
#define MFLSTM_NN_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace mflstm {
namespace nn {

/**
 * Workers for @p n sequences: one per hardware thread, at most n, and
 * at least one.
 */
inline std::size_t
sequenceWorkers(std::size_t n)
{
    return std::clamp<std::size_t>(
        n, 1, std::max(1u, std::thread::hardware_concurrency()));
}

/**
 * Call body(worker, i) once for every i < n, on up to @p workers threads
 * (worker < workers). Workers claim indices from one counter; the
 * caller's thread is worker 0, so one worker starts no thread, and a
 * thread that cannot start leaves its share to the others. After a body
 * throws no new index is claimed; every worker is joined and the
 * exception of the lowest failing i is rethrown on the caller's thread.
 */
template <typename Body>
void
forEachSequence(std::size_t n, std::size_t workers, Body &&body)
{
    workers = std::clamp<std::size_t>(workers, 1,
                                      std::max<std::size_t>(n, 1));
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::size_t> errorAt(workers, n);
    auto run = [&](std::size_t w) {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                body(w, i);
            } catch (...) {
                errors[w] = std::current_exception();
                errorAt[w] = i;
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };
    {
        std::vector<std::jthread> pool;
        pool.reserve(workers - 1);
        try {
            for (std::size_t w = 1; w < workers; ++w)
                pool.emplace_back(run, w);
        } catch (const std::system_error &) {
            // Out of threads: the workers already started share the rest.
        }
        run(0);
    }  // joins the pool
    const auto first = std::min_element(errorAt.begin(), errorAt.end());
    if (const std::exception_ptr &e = errors[first - errorAt.begin()])
        std::rethrow_exception(e);
}

/** Correct and total predictions of an accuracy loop. */
struct HitCount
{
    std::size_t correct = 0;
    std::size_t total = 0;
};

/**
 * Sum hits(worker, i) over every i < n with forEachSequence. Each worker
 * adds into a count on a cache line of its own; the counts are summed
 * in worker order. They are integers, so the sum is a serial loop's.
 */
template <typename Hits>
HitCount
countHits(std::size_t n, std::size_t workers, Hits &&hits)
{
    struct alignas(64) Slot
    {
        HitCount count;
    };
    std::vector<Slot> slots(std::max<std::size_t>(workers, 1));
    forEachSequence(n, slots.size(), [&](std::size_t w, std::size_t i) {
        const HitCount h = hits(w, i);
        slots[w].count.correct += h.correct;
        slots[w].count.total += h.total;
    });
    HitCount sum;
    for (const Slot &s : slots) {
        sum.correct += s.count.correct;
        sum.total += s.count.total;
    }
    return sum;
}

} // namespace nn
} // namespace mflstm

#endif // MFLSTM_NN_PARALLEL_HH
