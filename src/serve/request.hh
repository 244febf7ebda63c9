/**
 * @file
 * Value types of the serving layer (DESIGN.md §9-§10): what a client
 * submits (Request), what the engine returns (Response, carrying a
 * terminal Status), and the queue-internal envelope that carries a
 * request from submit() to the worker that completes it
 * (QueuedRequest).
 */

#ifndef MFLSTM_SERVE_REQUEST_HH
#define MFLSTM_SERVE_REQUEST_HH

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "tensor/matrix.hh"

namespace mflstm {
namespace serve {

using RequestId = std::uint64_t;

/**
 * Terminal outcome of one request. Every future the engine hands out
 * resolves with exactly one of these (DESIGN.md §10 status table) —
 * there is no silent success-only path and no leaked promise.
 */
enum class Status : std::uint8_t
{
    /// executed and completed within the deadline (or none was set)
    Ok = 0,
    /**
     * Deadline expired: either shed from the queue / batch before
     * execution (no outputs), or executed but completed late (outputs
     * populated; check executed). Both count as deadline misses.
     */
    ShedDeadline,
    /// turned away by admission control (queue full), or evicted from
    /// a full queue by a newer request under DropOldest
    RejectedCapacity,
    /// execution failed after the retry budget was exhausted
    Failed,
};

const char *toString(Status s);

/** One inference job: a token sequence plus scheduling hints. */
struct Request
{
    std::vector<std::int32_t> tokens;
    /// higher priority drains first; ties are FIFO
    int priority = 0;
    /// wall-clock deadline in ms from submit; 0 disables the check
    double deadlineMs = 0.0;
};

/** What the engine hands back for one Request. */
struct Response
{
    RequestId id = 0;

    /// terminal outcome; the functional fields below are only
    /// meaningful when executed is true
    Status status = Status::Ok;
    /// the functional run actually happened (logits are populated)
    bool executed = false;
    /// human-readable cause for Status::Failed
    std::string error;

    /// classification logits (TaskKind::Classification models)
    tensor::Vector logits;
    /// per-step next-token logits (TaskKind::LanguageModel models)
    std::vector<tensor::Vector> stepLogits;

    /// sequences packed into the batch this request rode in
    std::size_t batch = 0;
    /// governor ladder rung active for the batch (0 without a governor)
    std::size_t rung = 0;
    /// transient-fault retries this request consumed
    int retries = 0;
    /// wall ms spent queued before the batch started
    double queueMs = 0.0;
    /// wall ms from batch start until this request's own functional
    /// run began (earlier siblings, plus the batched timing run on the
    /// first batch of its (rung, batch) pair, or a timing-table copy)
    double batchWaitMs = 0.0;
    /// wall ms of this request's own functional run (incl. retries)
    double execMs = 0.0;
    /// wall ms from submit to completion
    double latencyMs = 0.0;

    /// simulated GPU time of the whole batched run, ms
    double simBatchMs = 0.0;
    /// simulated weight-matrix DRAM bytes amortised over the batch
    double weightDramBytesPerSeq = 0.0;

    /**
     * Derived from the status (the §10 unification): a request met its
     * deadline unless it resolved ShedDeadline. Rejected and failed
     * requests never reached the deadline check.
     */
    bool deadlineMet() const { return status != Status::ShedDeadline; }
};

/** Queue envelope: a Request plus everything the worker needs. */
struct QueuedRequest
{
    Request request;
    RequestId id = 0;
    /// admission order, the FIFO tiebreak within a priority level
    std::uint64_t seq = 0;
    std::chrono::steady_clock::time_point enqueued{};
    std::promise<Response> promise;

    /** The deadline has already passed at @p now (never true without one). */
    bool expired(std::chrono::steady_clock::time_point now) const
    {
        if (request.deadlineMs <= 0.0)
            return false;
        return std::chrono::duration<double, std::milli>(now - enqueued)
                   .count() > request.deadlineMs;
    }
};

} // namespace serve
} // namespace mflstm

#endif // MFLSTM_SERVE_REQUEST_HH
