#include "serve/fault.hh"

#include <algorithm>

namespace mflstm {
namespace serve {

ProbabilisticFaultInjector::ProbabilisticFaultInjector(
    double rate, std::uint64_t seed, std::uint64_t max_faults)
    : rate_(std::clamp(rate, 0.0, 1.0)), maxFaults_(max_faults),
      rng_(seed)
{}

bool
ProbabilisticFaultInjector::shouldFail(const FaultSite &)
{
    if (rate_ <= 0.0 ||
        injected_.load(std::memory_order_relaxed) >= maxFaults_)
        return false;
    double draw;
    {
        std::lock_guard<std::mutex> lock(mu_);
        draw = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
    }
    if (draw >= rate_)
        return false;
    injected_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

} // namespace serve
} // namespace mflstm
