/**
 * @file
 * Online user-oriented threshold controller (Fig. 10, op 3 and the UO
 * scheme of Section VI-E): "alpha will be adjusted per each execution of
 * the application given the accuracy difference between the user
 * preferred accuracy and the application output accuracy".
 *
 * The controller walks the threshold ladder one rung at a time. After
 * every execution it receives the observed output accuracy (or a proxy
 * — user feedback in the paper's deployment): if the observation beats
 * the user's preferred accuracy with margin, it climbs toward more
 * aggressive thresholds; if it falls short, it backs off. Hysteresis
 * (separate up/down margins plus a climb-cooldown after a back-off)
 * keeps it from oscillating on noisy feedback.
 */

#ifndef MFLSTM_CORE_CONTROLLER_HH
#define MFLSTM_CORE_CONTROLLER_HH

#include <cstddef>

namespace mflstm {
namespace core {

/** Tuning knobs of the UO controller. */
struct ControllerConfig
{
    /// start rung (0 = baseline thresholds)
    std::size_t initialIndex = 0;
    /// climb when observed accuracy exceeds the preference by this much
    double climbMargin = 0.01;
    /// back off when it falls below the preference by this much
    double backoffMargin = 0.0;
    /// executions to wait after a back-off before climbing again
    std::size_t cooldown = 3;
    /// smooth observations with an exponential moving average
    double emaWeight = 0.5;
};

/** The per-user adaptive threshold controller. */
class UserOrientedController
{
  public:
    /**
     * @param rungs           rungs of the application's threshold ladder.
     * @param preferred_accuracy the user's accuracy floor, [0,1].
     */
    UserOrientedController(std::size_t rungs, double preferred_accuracy,
                           const ControllerConfig &cfg = {});

    /** Ladder rung of the threshold set for the next execution. */
    std::size_t currentIndex() const { return index_; }

    /**
     * Report one execution's observed accuracy; the controller adapts.
     * @return the rung selected for the next execution.
     */
    std::size_t observe(double accuracy);

    /** Smoothed accuracy estimate at the current rung. */
    double estimate() const { return ema_; }

    std::size_t observations() const { return observations_; }

    double preferredAccuracy() const { return preferred_; }

  private:
    std::size_t rungs_;
    double preferred_;
    ControllerConfig cfg_;
    std::size_t index_;
    double ema_ = 0.0;
    bool emaValid_ = false;
    std::size_t cooldownLeft_ = 0;
    std::size_t observations_ = 0;
};

} // namespace core
} // namespace mflstm

#endif // MFLSTM_CORE_CONTROLLER_HH
