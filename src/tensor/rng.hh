/**
 * @file
 * Deterministic random number generation. Every stochastic component of
 * the reproduction (weight init, synthetic datasets, the user-study
 * population) draws from an explicitly seeded Rng so experiments are
 * reproducible bit-for-bit.
 */

#ifndef MFLSTM_TENSOR_RNG_HH
#define MFLSTM_TENSOR_RNG_HH

#include <cstdint>
#include <random>

#include "tensor/matrix.hh"

namespace mflstm {
namespace tensor {

/** Seeded pseudo-random source with the draw helpers the repo needs. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : engine_(seed) {}

    /** Uniform float in [lo, hi). */
    float uniform(float lo, float hi);

    /** Standard normal scaled by stddev around mean. */
    float normal(float mean, float stddev);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t integer(std::int64_t lo, std::int64_t hi);

    /** Bernoulli draw. */
    bool chance(double p);

    /** Fill a matrix with N(mean, stddev). */
    void fillNormal(Matrix &m, float mean, float stddev);

    /** Fill a matrix with U(lo, hi). */
    void fillUniform(Matrix &m, float lo, float hi);

    /**
     * Xavier/Glorot uniform initialisation: U(-b, b) with
     * b = sqrt(6 / (fan_in + fan_out)). Keeps pre-activation magnitudes in
     * the sensitive area early in training, which is what makes the
     * relevance analysis of Section IV-A meaningful.
     */
    void fillXavier(Matrix &m, std::size_t fan_in, std::size_t fan_out);

    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

} // namespace tensor
} // namespace mflstm

#endif // MFLSTM_TENSOR_RNG_HH
