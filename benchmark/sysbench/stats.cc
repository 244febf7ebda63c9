#include "sysbench/stats.hh"

#include <algorithm>
#include <cmath>

namespace mflstm {
namespace sysbench {

double
percentileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double n = static_cast<double>(sorted.size());
    const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * n);
    const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

double
percentile(std::vector<double> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    return percentileSorted(samples, q);
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

double
highestSupportedQuantile(std::size_t n)
{
    double best = 0.0;
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const double rank = std::ceil(q * static_cast<double>(n));
        if (rank >= 1.0 && static_cast<double>(n) - rank >= 10.0)
            best = q;
    }
    return best;
}

Summary
summarize(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    Summary s;
    s.n = samples.size();
    s.p50 = percentileSorted(samples, 0.5);
    s.p90 = percentileSorted(samples, 0.9);
    s.p99 = percentileSorted(samples, 0.99);
    s.topQuantile = highestSupportedQuantile(s.n);
    s.topValue = percentileSorted(samples, s.topQuantile);
    return s;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += x;
    return acc / static_cast<double>(xs.size());
}

} // namespace sysbench
} // namespace mflstm
