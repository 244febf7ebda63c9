#include "serve/governor.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace mflstm {
namespace serve {

AdaptiveThresholdGovernor::AdaptiveThresholdGovernor(
    std::size_t rung_count, const Config &cfg, obs::Observer *obs)
    : rungCount_(rung_count), cfg_(cfg), obs_(obs),
      // Allow an immediate first escalation once pressure appears.
      ticksSinceTransition_(cfg.dwellTicks)
{
    if (rungCount_ == 0)
        throw std::invalid_argument(
            "AdaptiveThresholdGovernor: rung_count == 0");
    if (kLowQueuePerWorker >= cfg_.highQueuePerWorker)
        throw std::invalid_argument(
            "AdaptiveThresholdGovernor: hysteresis band inverted "
            "(highQueuePerWorker must be > kLowQueuePerWorker)");
    if (obs_)
        obs_->metrics().gauge("serve.governor.rung").set(0.0);
}

void
AdaptiveThresholdGovernor::observe(std::size_t queue_depth,
                                   std::size_t workers)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++ticksSinceTransition_;

    const double per_worker =
        static_cast<double>(queue_depth) /
        static_cast<double>(std::max<std::size_t>(workers, 1));
    const bool pressure = per_worker >= cfg_.highQueuePerWorker;
    const bool calm = per_worker <= kLowQueuePerWorker;

    const std::size_t cur = rung_.load(std::memory_order_relaxed);
    const std::size_t floor =
        rungFloor_.load(std::memory_order_relaxed);

    // Below the floor: converge one rung per tick, bypassing dwell —
    // the fleet needs the redistribution to land promptly, but the
    // ladder must still never skip a rung.
    if (cur < floor) {
        rung_.store(cur + 1, std::memory_order_release);
        ticksSinceTransition_ = 0;
        ++stats_.stepsUp;
        recordTransition(true, cur + 1);
        return;
    }

    if (ticksSinceTransition_ < cfg_.dwellTicks)
        return;

    if (pressure && cur + 1 < rungCount_) {
        rung_.store(cur + 1, std::memory_order_release);
        ticksSinceTransition_ = 0;
        ++stats_.stepsUp;
        recordTransition(true, cur + 1);
    } else if (calm && cur > floor) {
        rung_.store(cur - 1, std::memory_order_release);
        ticksSinceTransition_ = 0;
        ++stats_.stepsDown;
        recordTransition(false, cur - 1);
    }
}

void
AdaptiveThresholdGovernor::setRungFloor(std::size_t rung)
{
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t floor = std::min(rung, rungCount_ - 1);
    rungFloor_.store(floor, std::memory_order_release);

    // Take the first convergence step immediately so a floor raised
    // between batches is not invisible until traffic arrives.
    const std::size_t cur = rung_.load(std::memory_order_relaxed);
    if (cur < floor) {
        rung_.store(cur + 1, std::memory_order_release);
        ticksSinceTransition_ = 0;
        ++stats_.stepsUp;
        recordTransition(true, cur + 1);
    }
}

AdaptiveThresholdGovernor::Stats
AdaptiveThresholdGovernor::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
AdaptiveThresholdGovernor::recordTransition(bool up, std::size_t to_rung)
{
    if (!obs_)
        return;
    obs::MetricsRegistry &m = obs_->metrics();
    m.counter(up ? "serve.governor.steps_up"
                 : "serve.governor.steps_down")
        .add();
    m.gauge("serve.governor.rung").set(static_cast<double>(to_rung));

    obs::TraceSpan span;
    span.name = std::string(up ? "governor:up:" : "governor:down:") +
                std::to_string(to_rung);
    span.category = "governor";
    span.pid = obs::SpanTracer::kHostPid;
    span.tid = 0;
    span.startUs = obs_->wallNowUs();
    span.durUs = 0.0;
    obs_->tracer().record(std::move(span));
}

} // namespace serve
} // namespace mflstm
