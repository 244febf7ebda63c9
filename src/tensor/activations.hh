/**
 * @file
 * Activation functions for the LSTM cell (Eq. 1-5) plus the sensitive /
 * insensitive area analysis of Section IV-A. The paper's inter-cell
 * optimisation hinges on the observation that sigmoid and tanh are
 * effectively constant outside the input range [-2, 2]; the boundary
 * constant lives here so the relevance computation (Algorithm 2) and the
 * tests agree on it.
 */

#ifndef MFLSTM_TENSOR_ACTIVATIONS_HH
#define MFLSTM_TENSOR_ACTIVATIONS_HH

namespace mflstm {
namespace tensor {

/**
 * Half-width of the sensitive area of sigmoid/tanh (Fig. 7): inputs in
 * [-kSensitiveBound, kSensitiveBound] are treated as sensitive; outside,
 * the activation output is insensitive to the input. The paper uses 2 for
 * both functions and notes the same boundary fits the hard sigmoid.
 */
constexpr float kSensitiveBound = 2.0f;

/** Logistic sigmoid. */
float sigmoid(float x);

/**
 * Piecewise-linear hard sigmoid, clamp(0.25 x + 0.5, 0, 1), the
 * Theano-style approximation referenced in Section IV-A.
 */
float hardSigmoid(float x);

/** Derivative of sigmoid expressed in terms of its output s. */
float sigmoidGradFromOutput(float s);

/** Derivative of tanh expressed in terms of its output t. */
float tanhGradFromOutput(float t);

} // namespace tensor
} // namespace mflstm

#endif // MFLSTM_TENSOR_ACTIVATIONS_HH
