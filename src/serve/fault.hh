/**
 * @file
 * Fault injection for the serving layer (DESIGN.md §10): a FaultInjector
 * decides, per site, whether to inject a transient failure. The engine
 * consults it at two sites — the batched timing run (before every
 * timing-table lookup, whether the lookup simulates or copies a stored
 * report) and each request's functional run — and retries with
 * exponential backoff up to its retry budget. A successful retry re-runs
 * the untouched functional dataflow, so its outputs are bit-identical
 * to a fault-free run; an exhausted budget resolves the request with
 * Status::Failed without stalling its batch siblings.
 *
 * Two implementations: ProbabilisticFaultInjector (seeded coin flip,
 * for stress/soak runs) and ScriptedFaultInjector (fail chosen
 * requests/batches for their first N attempts, for deterministic
 * tests). Both are thread-safe; the engine calls shouldFail from every
 * worker.
 */

#ifndef MFLSTM_SERVE_FAULT_HH
#define MFLSTM_SERVE_FAULT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>

#include "serve/request.hh"

namespace mflstm {
namespace serve {

/** Where in the serving pipeline a fault decision is being made. */
struct FaultSite
{
    enum class Kind : std::uint8_t
    {
        /// the batched timing run (a timing-table lookup)
        BatchRun = 0,
        /// one request's functional run inside a batch
        RequestRun,
    };

    Kind kind = Kind::RequestRun;
    /// engine-wide batch ordinal (both kinds)
    std::uint64_t batchOrdinal = 0;
    /// the request being served (RequestRun only)
    RequestId requestId = 0;
    /// 0-based attempt; attempts > 0 are retries
    int attempt = 0;
};

/** Thrown at the batch-timing site to model a transient device fault. */
class TransientFault : public std::runtime_error
{
  public:
    explicit TransientFault(const std::string &what)
        : std::runtime_error(what)
    {}
};

class FaultInjector
{
  public:
    virtual ~FaultInjector() = default;

    /**
     * @return true to inject a transient failure at @p site. Called
     * from every engine worker — implementations must be thread-safe.
     */
    virtual bool shouldFail(const FaultSite &site) = 0;
};

/**
 * Seeded coin flip per site, with an optional cap on total injections
 * so a soak run is guaranteed to drain.
 */
class ProbabilisticFaultInjector : public FaultInjector
{
  public:
    explicit ProbabilisticFaultInjector(
        double rate, std::uint64_t seed = 1,
        std::uint64_t max_faults = UINT64_MAX);

    bool shouldFail(const FaultSite &site) override;

    /** Faults injected so far (monotonic). */
    std::uint64_t injected() const
    {
        return injected_.load(std::memory_order_relaxed);
    }

  private:
    double rate_;
    std::uint64_t maxFaults_;
    std::atomic<std::uint64_t> injected_{0};
    std::mutex mu_;
    std::mt19937_64 rng_;
};

/**
 * Deterministic script: chosen requests / batches fail their first N
 * attempts, then succeed. Records every attempt it was asked about so
 * tests can assert the retry bound was honoured.
 */
class ScriptedFaultInjector : public FaultInjector
{
  public:
    /** Fail @p id's first @p attempts functional attempts. */
    void failRequest(RequestId id, int attempts);
    /** Fail batch @p ordinal's first @p attempts timing attempts. */
    void failBatch(std::uint64_t ordinal, int attempts);

    bool shouldFail(const FaultSite &site) override;

    /** Highest attempt index observed for @p id, plus one (0 = never). */
    int attemptsSeen(RequestId id) const;
    /** Total faults injected across both site kinds. */
    std::uint64_t injected() const;

  private:
    mutable std::mutex mu_;
    std::map<RequestId, int> requestScript_;
    std::map<std::uint64_t, int> batchScript_;
    std::map<RequestId, int> seen_;
    std::uint64_t injected_ = 0;
};

} // namespace serve
} // namespace mflstm

#endif // MFLSTM_SERVE_FAULT_HH
