/**
 * @file
 * Quantized weight container (DESIGN.md §12).
 *
 * A QuantizedMatrix holds the integer codes of a symmetric per-row
 * quantization: row r stores q[r][c] = clamp(round(w[r][c]/s_r), ±qmax)
 * with s_r = absmax(row r)/qmax. quant::applyFakeQuant writes
 * dequant(r, c) back into the fp32 model, so the served forward computes
 * what a fused dequant+FMA mobile-GPU kernel would.
 *
 * Error bound: |w - s_r*q| <= s_r/2, so one GEMV output obeys
 * |y_q[r] - y[r]| <= (s_r/2) * sum_j |x_j|.
 */

#ifndef MFLSTM_TENSOR_QMATRIX_HH
#define MFLSTM_TENSOR_QMATRIX_HH

#include <cstdint>
#include <vector>

#include "quant/qformat.hh"
#include "tensor/matrix.hh"

namespace mflstm {
namespace tensor {

class QuantizedMatrix
{
  public:
    QuantizedMatrix() = default;

    /** Symmetric per-row quantization of @p m. Fp32 mode is invalid. */
    static QuantizedMatrix quantize(const Matrix &m, quant::QuantMode mode);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Dequantization scale of row @p r (absmax/qmax; 1.0 for a zero row). */
    float scale(std::size_t r) const { return scales_[r]; }
    const std::vector<float> &scales() const { return scales_; }

    /** Integer code at (r, c), sign-extended (int4 is unpacked). */
    int code(std::size_t r, std::size_t c) const;

    /** Dequantized value at (r, c): scale(r) * code(r, c). */
    float dequant(std::size_t r, std::size_t c) const
    {
        return scales_[r] * static_cast<float>(code(r, c));
    }

    /**
     * Packed payload: rows*cols int8 codes, or rows*ceil(cols/2) bytes
     * for int4 (low nibble = even column; a trailing odd column leaves
     * the high nibble zero so the packing is canonical).
     */
    const std::vector<std::int8_t> &payload() const { return data_; }
    /** Payload bytes per row (cols for int8, ceil(cols/2) for int4). */
    std::size_t packedRowBytes() const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    quant::QuantMode mode_ = quant::QuantMode::Int8;
    std::vector<float> scales_;      ///< one per row
    std::vector<std::int8_t> data_;  ///< packed codes, row-major
};

} // namespace tensor
} // namespace mflstm

#endif // MFLSTM_TENSOR_QMATRIX_HH
