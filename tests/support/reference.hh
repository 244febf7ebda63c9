/**
 * @file
 * Reference implementations that tests compare the shipped code
 * against: a plain vertical concatenation (the united gate matrices of
 * Section II-C), a full dequantized copy of a QuantizedMatrix and the
 * serial form of ApproxRunner::calibrate.
 */

#ifndef MFLSTM_TESTS_SUPPORT_REFERENCE_HH
#define MFLSTM_TESTS_SUPPORT_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "core/approx.hh"
#include "core/predictor.hh"
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

/** What one calibration yields: the link predictors and the profile. */
struct SerialCalibration
{
    std::vector<core::LinkPredictor> predictors;
    core::ApproxRunner::CalibrationProfile profile;
};

/**
 * ApproxRunner::calibrate as two serial loops over runner.activeModel(),
 * leaving @p runner unchanged: the link-predictor loop adds each
 * sequence's exact-forward (h_t, c_t) traces to a copy of
 * runner.predictors(), and the profile scan appends each sequence's
 * relevances and o_t, which std::sort then orders. Empty sequences are
 * skipped by both.
 */
SerialCalibration
serialCalibrate(const core::ApproxRunner &runner,
                const std::vector<std::vector<std::int32_t>> &token_seqs);

} // namespace test
} // namespace mflstm

#endif // MFLSTM_TESTS_SUPPORT_REFERENCE_HH
