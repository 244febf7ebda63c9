#include "tensor/rng.hh"

#include <cmath>

namespace mflstm {
namespace tensor {

float
Rng::uniform(float lo, float hi)
{
    std::uniform_real_distribution<float> dist(lo, hi);
    return dist(engine_);
}

float
Rng::normal(float mean, float stddev)
{
    std::normal_distribution<float> dist(mean, stddev);
    return dist(engine_);
}

std::int64_t
Rng::integer(std::int64_t lo, std::int64_t hi)
{
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
}

bool
Rng::chance(double p)
{
    std::bernoulli_distribution dist(p);
    return dist(engine_);
}

void
Rng::fillNormal(Matrix &m, float mean, float stddev)
{
    std::normal_distribution<float> dist(mean, stddev);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = dist(engine_);
}

void
Rng::fillUniform(Matrix &m, float lo, float hi)
{
    std::uniform_real_distribution<float> dist(lo, hi);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = dist(engine_);
}

void
Rng::fillXavier(Matrix &m, std::size_t fan_in, std::size_t fan_out)
{
    const float bound =
        std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
    fillUniform(m, -bound, bound);
}

} // namespace tensor
} // namespace mflstm
