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
 * ProbabilisticFaultInjector (seeded coin flip, for stress/soak runs)
 * is the shipped implementation; the deterministic tests script their
 * faults with the test support library's ScriptedFaultInjector.
 * Implementations are thread-safe: the engine calls shouldFail from
 * every worker.
 */

#ifndef MFLSTM_SERVE_FAULT_HH
#define MFLSTM_SERVE_FAULT_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>

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

} // namespace serve
} // namespace mflstm

#endif // MFLSTM_SERVE_FAULT_HH
