/**
 * @file
 * Streaming statistics. The context-link predictor (Section IV-B,
 * "Accuracy Recovery") collects the value distribution of every element of
 * h_t over an offline run and predicts lost links with the per-element
 * expectation (Eq. 6); Histogram and VectorDistribution implement exactly
 * that.
 */

#ifndef MFLSTM_TENSOR_STATS_HH
#define MFLSTM_TENSOR_STATS_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.hh"

namespace mflstm {
namespace tensor {

/**
 * Fixed-range histogram over [lo, hi] with uniform bins; out-of-range
 * samples clamp to the edge bins so the probability mass always sums to 1.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);

    std::size_t samples() const { return samples_; }
    std::size_t bins() const { return counts_.size(); }
    double binCenter(std::size_t i) const;

    /** Empirical probability of bin i (rho_ij in Eq. 6). */
    double probability(std::size_t i) const;

    /**
     * Expectation under the empirical distribution:
     * sum_i binCenter(i) * probability(i) — Eq. 6 for one element.
     */
    double expectation() const;

    double lo() const { return lo_; }
    double hi() const { return hi_; }

    /** Raw count of bin i (persistence export). */
    std::uint64_t binCount(std::size_t i) const;

    /**
     * Replace the bin counts wholesale (persistence restore); the sample
     * count becomes the sum. @throws std::invalid_argument when
     * counts.size() != bins().
     */
    void restoreCounts(std::span<const std::uint64_t> counts);

  private:
    double lo_;
    double hi_;
    double width_;
    std::size_t samples_ = 0;
    std::vector<std::size_t> counts_;
};

/**
 * Distribution of each element of a fixed-size vector observed many
 * times. observe() ingests one context-link vector; expectation() returns
 * the predicted context link of Eq. 6.
 */
class VectorDistribution
{
  public:
    /**
     * @param dim   vector dimensionality (the hidden size).
     * @param lo/hi histogram range; context links h_t live in [-1, 1].
     * @param bins  histogram resolution per element.
     */
    VectorDistribution(std::size_t dim, double lo, double hi,
                       std::size_t bins);

    void observe(const Vector &v);

    std::size_t dim() const { return elements_.size(); }
    std::size_t samples() const { return samples_; }

    const Histogram &element(std::size_t i) const { return elements_[i]; }

    /** Per-element expectation vector (the predicted link). */
    Vector expectation() const;

    /**
     * Restore element @p i's histogram counts (persistence restore) and
     * re-sync the observation count from element 0.
     */
    void restoreElementCounts(std::size_t i,
                              std::span<const std::uint64_t> counts);

  private:
    std::size_t samples_ = 0;
    std::vector<Histogram> elements_;
};

} // namespace tensor
} // namespace mflstm

#endif // MFLSTM_TENSOR_STATS_HH
