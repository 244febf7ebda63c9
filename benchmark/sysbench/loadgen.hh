/**
 * @file
 * Open-loop load generation: seeded Poisson arrival schedules and the
 * pacing loop that submits each request at its due time. The schedule
 * depends only on (rate, duration, seed) and is byte-identical for the
 * same arguments, so every run with one --seed offers the same load.
 */

#ifndef SYSBENCH_LOADGEN_HH
#define SYSBENCH_LOADGEN_HH

#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace mflstm {
namespace sysbench {

/**
 * Mix @p tag into @p seed (FNV-1a over the tag, then splitmix64), so
 * each phase and repetition draws from its own stream. The result never
 * falls in 101..106, the seeds the Table II training sets use.
 */
std::uint64_t deriveSeed(std::uint64_t seed, std::string_view tag);

/**
 * Due times, in nanoseconds from the phase start, of a Poisson process
 * of @p rate_per_s arrivals per second over @p duration_s seconds.
 * Inter-arrival gaps are -log1p(-u) / rate with u in [0, 1) drawn from
 * std::mt19937_64 (53-bit mantissa); offsets are truncated to whole ns.
 */
std::vector<std::int64_t> poissonSchedule(double rate_per_s,
                                          double duration_s,
                                          std::uint64_t seed);

using SteadyClock = std::chrono::steady_clock;

/**
 * Block until @p due: sleep while more than 200 us remain, then spin,
 * so the generator wakes within microseconds of each due time without
 * burning a core between sparse arrivals.
 */
void waitUntil(SteadyClock::time_point due);

} // namespace sysbench
} // namespace mflstm

#endif // SYSBENCH_LOADGEN_HH
