/**
 * @file
 * Adaptive threshold governor (DESIGN.md §10): walks the engine's
 * active ThresholdSet along a configured AO→BPA ladder (the paper's
 * Sec. V / Table II operating points) as load changes. Under pressure
 * — a deep queue per worker — it steps one rung toward BPA so batches
 * serve faster at a small accuracy cost; when the queue drains it
 * steps back toward AO.
 *
 * Hysteresis comes from two mechanisms: the escalate threshold is
 * strictly above the relax threshold (a depth band where the rung
 * holds), and at least Config::dwellTicks observations must pass
 * between transitions — so an AO↔BPA flap cannot happen on consecutive
 * batches. Every transition is counted in the metrics registry
 * (serve.governor.steps_up / steps_down, serve.governor.rung gauge)
 * and traced as a zero-length host span.
 *
 * Thread safety: rung() is an atomic read on the worker hot path;
 * observe() serialises on a mutex (one call per completed batch).
 */

#ifndef MFLSTM_SERVE_GOVERNOR_HH
#define MFLSTM_SERVE_GOVERNOR_HH

#include <atomic>
#include <cstdint>
#include <mutex>

#include "obs/observer.hh"

namespace mflstm {
namespace serve {

class AdaptiveThresholdGovernor
{
  public:
    /// step toward AO when queued requests per worker fall to this
    static constexpr double kLowQueuePerWorker = 2.0;

    struct Config
    {
        /// step toward BPA when queued requests per worker reach this;
        /// must be > kLowQueuePerWorker for the hysteresis band
        double highQueuePerWorker = 16.0;
        /// minimum observe() calls between two transitions
        std::uint64_t dwellTicks = 8;
    };

    struct Stats
    {
        std::uint64_t stepsUp = 0;    ///< transitions toward BPA
        std::uint64_t stepsDown = 0;  ///< transitions toward AO
    };

    /**
     * @param rung_count ladder rungs available (rung 0 = most accurate
     *        / AO end).
     * @param obs optional sink for transition counters/trace spans.
     * @throws std::invalid_argument on rung_count == 0 or an inverted
     *         hysteresis band.
     */
    AdaptiveThresholdGovernor(std::size_t rung_count, const Config &cfg,
                              obs::Observer *obs = nullptr);

    /** The rung workers should serve the next batch at (atomic). */
    std::size_t rung() const
    {
        return rung_.load(std::memory_order_acquire);
    }

    /**
     * One control tick, called by a worker after each batch completes.
     * @param queue_depth current queued requests
     * @param workers     engine worker count (>= 1)
     */
    void observe(std::size_t queue_depth, std::size_t workers);

    /**
     * Fleet overload redistribution (DESIGN.md §16): forbid serving
     * below @p rung. The governor converges toward the floor one rung
     * per call — here and on every observe() tick, bypassing dwell —
     * so the ladder still never skips a rung; relaxation below the
     * floor waits until the floor is lowered. Clamped to rungCount-1.
     */
    void setRungFloor(std::size_t rung);
    std::size_t rungFloor() const
    {
        return rungFloor_.load(std::memory_order_acquire);
    }

    Stats stats() const;

  private:
    void recordTransition(bool up, std::size_t to_rung);

    std::size_t rungCount_;
    Config cfg_;
    obs::Observer *obs_;
    std::atomic<std::size_t> rung_{0};
    std::atomic<std::size_t> rungFloor_{0};
    mutable std::mutex mu_;
    std::uint64_t ticksSinceTransition_;
    Stats stats_;
};

} // namespace serve
} // namespace mflstm

#endif // MFLSTM_SERVE_GOVERNOR_HH
