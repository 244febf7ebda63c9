/**
 * @file
 * The benchmark's four workloads. Each fills @p rep with the end-to-end
 * metrics (untraced run) or the per-layer metrics (traced run), runs its
 * correctness checks into @p rep, and records spans into @p tracer when
 * it is enabled.
 */

#ifndef SYSBENCH_WORKLOADS_HH
#define SYSBENCH_WORKLOADS_HH

#include "sysbench/common.hh"

namespace mflstm {
namespace sysbench {

/** Open-loop serving of one Table II application. */
struct ServeProfile
{
    const char *app;
    /// Poisson arrival rates of the light and heavy phases, requests/s
    double lightRps;
    double heavyRps;
    /// latency limit from the due time that a request must meet, ms
    double limitMs;
};

// MR: per-request work is tiny, so the per-batch timing run and the
// queue/batcher/future overhead dominate service time. PTB: the
// functional forward and the per-step LM outputs are heavy, and batches
// fill under load. Heavy rates sit near half of each app's saturated
// throughput on a 4-vCPU x86 host (about 10k/s for MR, 950/s for PTB).
inline constexpr ServeProfile kServeMr{"MR", 1500.0, 4500.0, 10.0};
inline constexpr ServeProfile kServePtb{"PTB", 150.0, 450.0, 100.0};

void runServe(const Options &opts, const ServeProfile &profile, Report &rep,
              Tracer &tracer);

/** The Table II reproduction path: the 11-rung ladder of every app. */
void runSweep(const Options &opts, Report &rep, Tracer &tracer);

/** Cached schedule search: 6 apps x {fp32, int8} x {tx1, dp4a, epur}. */
void runTune(const Options &opts, Report &rep, Tracer &tracer);

} // namespace sysbench
} // namespace mflstm

#endif // SYSBENCH_WORKLOADS_HH
