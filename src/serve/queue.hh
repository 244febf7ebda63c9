/**
 * @file
 * Thread-safe request queue: producers (client threads calling
 * InferenceEngine::submit) push, consumers (the batcher on behalf of
 * worker threads) pop. Ordering is priority-descending with FIFO ties,
 * implemented as a binary heap under one mutex.
 *
 * The queue is optionally bounded (DESIGN.md §10). When full, the
 * configured admission policy decides what happens to a new push:
 * reject it, evict the oldest queued item to make room, or block the
 * producer until space frees up or a timeout expires. The queue never
 * completes promises itself — items it bounces or evicts are handed
 * back to the caller, which owns the terminal-status bookkeeping, so
 * no future is ever resolved twice or leaked.
 *
 * close() wakes every blocked consumer and producer; items still
 * queued at close keep draining, so shutdown completes submitted work
 * instead of dropping it.
 */

#ifndef MFLSTM_SERVE_QUEUE_HH
#define MFLSTM_SERVE_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "serve/request.hh"

namespace mflstm {
namespace serve {

/** What a full bounded queue does with a new push. */
enum class AdmissionPolicy : std::uint8_t
{
    /// bounce the new item back to the caller
    RejectNew = 0,
    /// evict the globally oldest queued item (minimum seq) to make room
    DropOldest,
    /// block the producer until space or QueueOptions::blockTimeoutMs
    BlockWithTimeout,
};

const char *toString(AdmissionPolicy p);

struct QueueOptions
{
    /// maximum queued items; 0 = unbounded (legacy behaviour)
    std::size_t capacity = 0;
    AdmissionPolicy policy = AdmissionPolicy::RejectNew;
    /// producer wait bound for BlockWithTimeout, wall milliseconds
    double blockTimeoutMs = 5.0;
};

class RequestQueue
{
  public:
    enum class PushOutcome : std::uint8_t
    {
        Admitted = 0,
        /// capacity refused the item (or the block timed out); the item
        /// is handed back through the bounced vector
        RejectedCapacity,
        /// the queue is closed; the item is handed back
        Closed,
    };

    RequestQueue() = default;
    explicit RequestQueue(const QueueOptions &opt) : opt_(opt) {}

    /**
     * Enqueue one item and wake a consumer. On RejectedCapacity or
     * Closed the item itself is appended to @p bounced; a DropOldest
     * admission appends the evicted victim instead. The caller must
     * complete every bounced promise with a terminal status.
     * @p on_accept, when set, runs under the queue lock on every
     * outcome but Closed, before any consumer can pop the item.
     */
    PushOutcome push(QueuedRequest item,
                     std::vector<QueuedRequest> *bounced = nullptr,
                     const std::function<void()> &on_accept = {});

    /**
     * Block until an item is available or the queue is closed and
     * drained. Pops the highest-priority (then oldest) item.
     * @return false only on closed-and-empty.
     */
    bool popWait(QueuedRequest &out);

    /**
     * Non-blocking: pop up to @p max items in queue order into @p out
     * (appended). @return the number popped.
     */
    std::size_t drain(std::vector<QueuedRequest> &out, std::size_t max);

    /** Stop accepting pushes and wake all blocked consumers/producers. */
    void close();

    std::size_t size() const;
    std::size_t capacity() const { return opt_.capacity; }
    const QueueOptions &options() const { return opt_; }
    /// deepest queue depth ever observed
    std::size_t highWater() const;

  private:
    bool fullLocked() const
    {
        return opt_.capacity > 0 && heap_.size() >= opt_.capacity;
    }
    void admitLocked(QueuedRequest item);

    QueueOptions opt_{};
    mutable std::mutex mu_;
    std::condition_variable cv_;       ///< consumers: items available
    std::condition_variable spaceCv_;  ///< producers: space available
    std::vector<QueuedRequest> heap_;
    std::size_t highWater_ = 0;
    bool closed_ = false;
};

} // namespace serve
} // namespace mflstm

#endif // MFLSTM_SERVE_QUEUE_HH
