/**
 * @file
 * Reference implementations that tests compare the shipped tensor code
 * against: a plain vertical concatenation (the united gate matrices of
 * Section II-C) and a full dequantized copy of a QuantizedMatrix.
 */

#ifndef MFLSTM_TESTS_SUPPORT_REFERENCE_HH
#define MFLSTM_TESTS_SUPPORT_REFERENCE_HH

#include <vector>

#include "tensor/matrix.hh"
#include "tensor/qmatrix.hh"

namespace mflstm {
namespace test {

/**
 * Vertically concatenate matrices that share a column count.
 * @throws std::invalid_argument on a column mismatch.
 */
tensor::Matrix vconcat(const std::vector<const tensor::Matrix *> &parts);

/** Full dequantized copy: element (r, c) is q.dequant(r, c). */
tensor::Matrix dequantize(const tensor::QuantizedMatrix &q);

} // namespace test
} // namespace mflstm

#endif // MFLSTM_TESTS_SUPPORT_REFERENCE_HH
