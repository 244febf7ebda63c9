#include "serve/queue.hh"

#include <algorithm>
#include <chrono>

namespace mflstm {
namespace serve {

namespace {

/**
 * Max-heap "less": a sorts after b when a has lower priority, or equal
 * priority but a later admission (higher seq). The heap top is then the
 * highest-priority, oldest item.
 */
bool
heapLess(const QueuedRequest &a, const QueuedRequest &b)
{
    if (a.request.priority != b.request.priority)
        return a.request.priority < b.request.priority;
    return a.seq > b.seq;
}

} // anonymous namespace

const char *
toString(Status s)
{
    switch (s) {
    case Status::Ok:
        return "ok";
    case Status::ShedDeadline:
        return "shed-deadline";
    case Status::RejectedCapacity:
        return "rejected-capacity";
    case Status::Failed:
        return "failed";
    }
    return "?";
}

const char *
toString(AdmissionPolicy p)
{
    switch (p) {
    case AdmissionPolicy::RejectNew:
        return "reject-new";
    case AdmissionPolicy::DropOldest:
        return "drop-oldest";
    case AdmissionPolicy::BlockWithTimeout:
        return "block-with-timeout";
    }
    return "?";
}

void
RequestQueue::admitLocked(QueuedRequest item)
{
    heap_.push_back(std::move(item));
    std::push_heap(heap_.begin(), heap_.end(), heapLess);
    highWater_ = std::max(highWater_, heap_.size());
}

RequestQueue::PushOutcome
RequestQueue::push(QueuedRequest item, std::vector<QueuedRequest> *bounced,
                   const std::function<void()> &on_accept)
{
    std::unique_lock<std::mutex> lock(mu_);
    PushOutcome outcome = PushOutcome::Admitted;
    if (!closed_ && fullLocked()) {
        switch (opt_.policy) {
        case AdmissionPolicy::RejectNew:
            outcome = PushOutcome::RejectedCapacity;
            break;

        case AdmissionPolicy::DropOldest: {
            // Victim: the globally oldest admission (minimum seq) —
            // under deadline pressure it is the closest to expiry.
            const auto victim = std::min_element(
                heap_.begin(), heap_.end(),
                [](const QueuedRequest &a, const QueuedRequest &b) {
                    return a.seq < b.seq;
                });
            if (bounced)
                bounced->push_back(std::move(*victim));
            heap_.erase(victim);
            std::make_heap(heap_.begin(), heap_.end(), heapLess);
            break;
        }

        case AdmissionPolicy::BlockWithTimeout: {
            const auto deadline =
                std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        opt_.blockTimeoutMs));
            spaceCv_.wait_until(lock, deadline, [&] {
                return closed_ || !fullLocked();
            });
            if (fullLocked())  // timed out, still full
                outcome = PushOutcome::RejectedCapacity;
            break;
        }
        }
    }

    if (closed_)
        outcome = PushOutcome::Closed;
    else if (on_accept)
        on_accept();  // still under the lock: no consumer has the item
    if (outcome != PushOutcome::Admitted) {
        if (bounced)
            bounced->push_back(std::move(item));
        return outcome;
    }
    admitLocked(std::move(item));
    lock.unlock();
    cv_.notify_one();
    return outcome;
}

bool
RequestQueue::popWait(QueuedRequest &out)
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !heap_.empty(); });
    if (heap_.empty())
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), heapLess);
    out = std::move(heap_.back());
    heap_.pop_back();
    lock.unlock();
    spaceCv_.notify_one();
    return true;
}

std::size_t
RequestQueue::drain(std::vector<QueuedRequest> &out, std::size_t max)
{
    std::unique_lock<std::mutex> lock(mu_);
    std::size_t n = 0;
    while (n < max && !heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), heapLess);
        out.push_back(std::move(heap_.back()));
        heap_.pop_back();
        ++n;
    }
    lock.unlock();
    if (n)
        spaceCv_.notify_all();
    return n;
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    cv_.notify_all();
    spaceCv_.notify_all();
}

std::size_t
RequestQueue::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return heap_.size();
}

std::size_t
RequestQueue::highWater() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return highWater_;
}

} // namespace serve
} // namespace mflstm
