#include "core/controller.hh"

#include <algorithm>
#include <stdexcept>

namespace mflstm {
namespace core {

UserOrientedController::UserOrientedController(
    std::size_t rungs, double preferred_accuracy,
    const ControllerConfig &cfg)
    : rungs_(rungs), preferred_(preferred_accuracy), cfg_(cfg),
      index_(cfg.initialIndex)
{
    if (rungs_ == 0)
        throw std::invalid_argument(
            "UserOrientedController: empty ladder");
    if (preferred_ < 0.0 || preferred_ > 1.0)
        throw std::invalid_argument(
            "UserOrientedController: preference out of [0,1]");
    index_ = std::min(index_, rungs_ - 1);
}

std::size_t
UserOrientedController::observe(double accuracy)
{
    ++observations_;
    if (emaValid_) {
        ema_ = cfg_.emaWeight * accuracy +
               (1.0 - cfg_.emaWeight) * ema_;
    } else {
        ema_ = accuracy;
        emaValid_ = true;
    }

    if (ema_ < preferred_ - cfg_.backoffMargin) {
        // Too much loss for this user: retreat one rung and hold.
        if (index_ > 0)
            --index_;
        cooldownLeft_ = cfg_.cooldown;
        emaValid_ = false;  // the estimate belongs to the old rung
        return index_;
    }

    if (cooldownLeft_ > 0) {
        --cooldownLeft_;
        return index_;
    }

    if (ema_ >= preferred_ + cfg_.climbMargin &&
        index_ + 1 < rungs_) {
        ++index_;
        emaValid_ = false;
    }
    return index_;
}

} // namespace core
} // namespace mflstm
