/**
 * @file
 * Panel-packed GEMV for the host functional forward. The weights are
 * packed in 16-row panels, column-major inside a panel, so one load of
 * x[c] feeds sixteen independent row sums. Each row still accumulates
 * from 0.0f in ascending column order, exactly as tensor::gemv does, so
 * every output is bit-identical to it (DESIGN.md, "Host forward").
 */

#ifndef MFLSTM_TENSOR_PANEL_HH
#define MFLSTM_TENSOR_PANEL_HH

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.hh"

namespace mflstm {
namespace tensor {

/**
 * One or more matrices that share a column count, stacked as vconcat
 * would stack them and packed in panels of kPanelRows rows. Element
 * (r, c) lives at panel r / kPanelRows, offset c * kPanelRows +
 * r % kPanelRows; the last panel's missing rows are zero.
 */
class PanelMatrix
{
  public:
    static constexpr std::size_t kPanelRows = 16;

    PanelMatrix() = default;

    /** Pack one matrix. */
    explicit PanelMatrix(const Matrix &a) : PanelMatrix({&a}) {}

    /** Pack the vertical concatenation of @p parts without forming it. */
    explicit PanelMatrix(const std::vector<const Matrix *> &parts);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t panels() const
    {
        return (rows_ + kPanelRows - 1) / kPanelRows;
    }

    /** The cols x kPanelRows block of panel @p p. */
    const float *panel(std::size_t p) const
    {
        assert(p < panels());
        return data_.data() + p * cols_ * kPanelRows;
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/** y = A * x, bit-identical to tensor::gemv on the unpacked matrix. */
void gemv(const PanelMatrix &a, const Vector &x, Vector &y);

/** y = A * x into caller-owned storage of a.rows() floats. */
void gemv(const PanelMatrix &a, std::span<const float> x,
          std::span<float> y);

/** y = A * x + b. */
void gemv(const PanelMatrix &a, const Vector &x, const Vector &b,
          Vector &y);

/**
 * Masked GEMV: y[r] = (A * x)[r] where skip[r] == 0, and y[r] = 0.0f
 * where it is set. This is the functional contract of
 * Sgemv(U_{f,i,c}, h, R) in Algorithm 3. A panel whose rows are all
 * skipped is not computed; in a mixed panel every row is computed and
 * the skipped ones are then written as zero.
 *
 * @param skip  one flag per row of @p a.
 */
void gemvMasked(const PanelMatrix &a, const Vector &x,
                std::span<const std::uint8_t> skip, Vector &y);

} // namespace tensor
} // namespace mflstm

#endif // MFLSTM_TENSOR_PANEL_HH
