/**
 * @file
 * Deterministic fault script for the serving tests (DESIGN.md §10):
 * chosen requests or batches fail their first N attempts, then succeed.
 */

#ifndef MFLSTM_TESTS_SUPPORT_FAULT_HH
#define MFLSTM_TESTS_SUPPORT_FAULT_HH

#include <cstdint>
#include <map>
#include <mutex>

#include "serve/fault.hh"

namespace mflstm {
namespace test {

/**
 * Deterministic script: chosen requests / batches fail their first N
 * attempts, then succeed. Records every attempt it was asked about so
 * tests can assert the retry bound was honoured.
 */
class ScriptedFaultInjector : public serve::FaultInjector
{
  public:
    /** Fail @p id's first @p attempts functional attempts. */
    void failRequest(serve::RequestId id, int attempts);
    /** Fail batch @p ordinal's first @p attempts timing attempts. */
    void failBatch(std::uint64_t ordinal, int attempts);

    bool shouldFail(const serve::FaultSite &site) override;

    /** Highest attempt index observed for @p id, plus one (0 = never). */
    int attemptsSeen(serve::RequestId id) const;
    /** Total faults injected across both site kinds. */
    std::uint64_t injected() const;

  private:
    mutable std::mutex mu_;
    std::map<serve::RequestId, int> requestScript_;
    std::map<std::uint64_t, int> batchScript_;
    std::map<serve::RequestId, int> seen_;
    std::uint64_t injected_ = 0;
};

} // namespace test
} // namespace mflstm

#endif // MFLSTM_TESTS_SUPPORT_FAULT_HH
