#include "tensor/stats.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace mflstm {
namespace tensor {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0)
{
    if (bins == 0 || hi <= lo)
        throw std::invalid_argument("Histogram: bad range or bin count");
}

void
Histogram::add(double x)
{
    auto idx = static_cast<std::ptrdiff_t>((x - lo_) / width_);
    idx = std::clamp<std::ptrdiff_t>(
        idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(idx)];
    ++samples_;
}

double
Histogram::binCenter(std::size_t i) const
{
    assert(i < counts_.size());
    return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double
Histogram::probability(std::size_t i) const
{
    assert(i < counts_.size());
    if (samples_ == 0)
        return 0.0;
    return static_cast<double>(counts_[i]) /
           static_cast<double>(samples_);
}

double
Histogram::expectation() const
{
    double acc = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i)
        acc += binCenter(i) * probability(i);
    return acc;
}

std::uint64_t
Histogram::binCount(std::size_t i) const
{
    assert(i < counts_.size());
    return static_cast<std::uint64_t>(counts_[i]);
}

void
Histogram::restoreCounts(std::span<const std::uint64_t> counts)
{
    if (counts.size() != counts_.size())
        throw std::invalid_argument(
            "Histogram::restoreCounts: bin count mismatch");
    samples_ = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        counts_[i] = static_cast<std::size_t>(counts[i]);
        samples_ += counts_[i];
    }
}

VectorDistribution::VectorDistribution(std::size_t dim, double lo,
                                       double hi, std::size_t bins)
{
    elements_.reserve(dim);
    for (std::size_t i = 0; i < dim; ++i)
        elements_.emplace_back(lo, hi, bins);
}

void
VectorDistribution::observe(const Vector &v)
{
    if (v.size() != elements_.size())
        throw std::invalid_argument("VectorDistribution: dim mismatch");
    for (std::size_t i = 0; i < v.size(); ++i)
        elements_[i].add(v[i]);
    ++samples_;
}

void
VectorDistribution::restoreElementCounts(
    std::size_t i, std::span<const std::uint64_t> counts)
{
    if (i >= elements_.size())
        throw std::invalid_argument(
            "VectorDistribution::restoreElementCounts: bad element");
    elements_[i].restoreCounts(counts);
    samples_ = elements_.front().samples();
}

Vector
VectorDistribution::expectation() const
{
    Vector out(elements_.size());
    for (std::size_t i = 0; i < elements_.size(); ++i)
        out[i] = static_cast<float>(elements_[i].expectation());
    return out;
}

} // namespace tensor
} // namespace mflstm
