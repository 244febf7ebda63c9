/**
 * @file
 * Quantized weight container + reference kernels (DESIGN.md §12).
 *
 * A QuantizedMatrix holds the integer codes of a symmetric per-row
 * quantization: row r stores q[r][c] = clamp(round(w[r][c]/s_r), ±qmax)
 * with s_r = absmax(row r)/qmax. The GEMV/GEMM kernels dequantize
 * in-register — the per-row scale is hoisted out of the inner loop, the
 * int code is widened to float inside it — which is the functional
 * contract of the fused dequant+FMA the mobile-GPU kernels would run.
 *
 * Error bound (the one tests assert): |w - s_r*q| <= s_r/2, so one
 * GEMV output obeys |y_q[r] - y[r]| <= (s_r/2) * sum_j |x_j|.
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
    quant::QuantMode mode() const { return mode_; }

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

    /** Full dequantized copy (testing / fake-quant). */
    Matrix dequantize() const;

    /**
     * Packed payload: rows*cols int8 codes, or rows*ceil(cols/2) bytes
     * for int4 (low nibble = even column; a trailing odd column leaves
     * the high nibble zero so serialization is canonical).
     */
    const std::vector<std::int8_t> &payload() const { return data_; }
    /** Payload bytes per row (cols for int8, ceil(cols/2) for int4). */
    std::size_t packedRowBytes() const;

    /**
     * Rebuild from serialized parts (quant/serialize.cc). The caller is
     * responsible for validating sizes/values; this only adopts them.
     */
    static QuantizedMatrix fromParts(std::size_t rows, std::size_t cols,
                                     quant::QuantMode mode,
                                     std::vector<float> scales,
                                     std::vector<std::int8_t> payload);

    bool operator==(const QuantizedMatrix &) const = default;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    quant::QuantMode mode_ = quant::QuantMode::Int8;
    std::vector<float> scales_;      ///< one per row
    std::vector<std::int8_t> data_;  ///< packed codes, row-major
};

/** y = A_q * x with in-register dequantization. */
void gemvQuant(const QuantizedMatrix &a, const Vector &x, Vector &y);

/** y = A_q * x + b. */
void gemvQuant(const QuantizedMatrix &a, const Vector &x, const Vector &b,
               Vector &y);

/**
 * Row-skipping quantized GEMV: the outputs of tensor::gemvMasked —
 * skipped rows output 0 — with skipped rows neither dequantized nor
 * computed.
 */
void gemvQuantRowSkip(const QuantizedMatrix &a, const Vector &x,
                      const std::vector<std::uint32_t> &skip, Vector &y);

/** C = A_q * B. A is m x k quantized, B is k x n, C is m x n. */
void gemmQuant(const QuantizedMatrix &a, const Matrix &b, Matrix &c);

} // namespace tensor
} // namespace mflstm

#endif // MFLSTM_TENSOR_QMATRIX_HH
