#include "support/fault.hh"

#include <algorithm>

namespace mflstm {
namespace test {

void
ScriptedFaultInjector::failRequest(serve::RequestId id, int attempts)
{
    std::lock_guard<std::mutex> lock(mu_);
    requestScript_[id] = attempts;
}

void
ScriptedFaultInjector::failBatch(std::uint64_t ordinal, int attempts)
{
    std::lock_guard<std::mutex> lock(mu_);
    batchScript_[ordinal] = attempts;
}

bool
ScriptedFaultInjector::shouldFail(const serve::FaultSite &site)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (site.kind == serve::FaultSite::Kind::RequestRun) {
        int &seen = seen_[site.requestId];
        seen = std::max(seen, site.attempt + 1);
        const auto it = requestScript_.find(site.requestId);
        if (it != requestScript_.end() && site.attempt < it->second) {
            ++injected_;
            return true;
        }
        return false;
    }
    const auto it = batchScript_.find(site.batchOrdinal);
    if (it != batchScript_.end() && site.attempt < it->second) {
        ++injected_;
        return true;
    }
    return false;
}

int
ScriptedFaultInjector::attemptsSeen(serve::RequestId id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = seen_.find(id);
    return it == seen_.end() ? 0 : it->second;
}

std::uint64_t
ScriptedFaultInjector::injected() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return injected_;
}

} // namespace test
} // namespace mflstm
