/**
 * @file
 * Sample statistics for the system benchmark. Every percentile the
 * benchmark reports comes from raw samples through one fixed index rule
 * (nearest rank), never from a bucketed histogram.
 */

#ifndef SYSBENCH_STATS_HH
#define SYSBENCH_STATS_HH

#include <cstddef>
#include <vector>

namespace mflstm {
namespace sysbench {

/**
 * Nearest-rank percentile of ascending @p sorted: the element at index
 * ceil(q * n) - 1, clamped to [0, n - 1]. q = 0.5 is the median's
 * upper-middle element for even n. Returns 0 for an empty sample.
 */
double percentileSorted(const std::vector<double> &sorted, double q);

/** percentileSorted over a sorted copy of @p samples. */
double percentile(std::vector<double> samples, double q);

double median(std::vector<double> samples);

/**
 * The highest of p50, p90, p99 and p99.9 that has at least ten samples
 * above its nearest-rank index in a sample of @p n, as a fraction (0.99
 * for p99); 0 when not even the median qualifies.
 */
double highestSupportedQuantile(std::size_t n);

/** What the benchmark reports for one timing sample. */
struct Summary
{
    std::size_t n = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    /// highestSupportedQuantile(n) and the value there
    double topQuantile = 0.0;
    double topValue = 0.0;
};

Summary summarize(std::vector<double> samples);

/** Geometric mean of positive values; 0 for an empty input. */
double geomean(const std::vector<double> &xs);

double mean(const std::vector<double> &xs);

} // namespace sysbench
} // namespace mflstm

#endif // SYSBENCH_STATS_HH
