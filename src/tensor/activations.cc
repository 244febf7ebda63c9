#include "tensor/activations.hh"

#include <algorithm>
#include <cmath>

namespace mflstm {
namespace tensor {

float
sigmoid(float x)
{
    return 1.0f / (1.0f + std::exp(-x));
}

float
hardSigmoid(float x)
{
    return std::clamp(0.25f * x + 0.5f, 0.0f, 1.0f);
}

float
sigmoidGradFromOutput(float s)
{
    return s * (1.0f - s);
}

float
tanhGradFromOutput(float t)
{
    return 1.0f - t * t;
}

} // namespace tensor
} // namespace mflstm
