/**
 * @file
 * BLAS-style dense kernels. These are the CPU-side functional equivalents
 * of the GPU kernels the paper lowers LSTM layers onto (Sgemv, Sgemm and
 * the element-wise kernel). The forward runs its GEMVs, including the
 * row-skipping one of Dynamic Row Skip, through tensor/panel.hh; the
 * row-major gemv here is the reference those match bit for bit.
 */

#ifndef MFLSTM_TENSOR_OPS_HH
#define MFLSTM_TENSOR_OPS_HH

#include <span>

#include "tensor/matrix.hh"

namespace mflstm {
namespace tensor {

/** y = A * x. A is rows x cols; x has cols elements; y has rows. */
void gemv(const Matrix &a, const Vector &x, Vector &y);

/** y = A * x + b. */
void gemv(const Matrix &a, const Vector &x, const Vector &b, Vector &y);

/** y = A^T * x. A is rows x cols; x has rows elements; y has cols. */
void gemvT(const Matrix &a, const Vector &x, Vector &y);

/** Rank-1 update A += alpha * x * y^T (BLAS ger). Used by BPTT. */
void ger(float alpha, const Vector &x, const Vector &y, Matrix &a);

/** C = A * B. A is m x k, B is k x n, C is m x n. Blocked for locality. */
void gemm(const Matrix &a, const Matrix &b, Matrix &c);

/** out[i] = a[i] + b[i]. */
void add(std::span<const float> a, std::span<const float> b,
         std::span<float> out);

/** Sum of |a[i]| for one span. Used by Algorithm 2 line 2. */
float sumAbs(std::span<const float> a);

/** Per-row sum of absolute values: D[r] = sum_c |A[r][c]|. */
Vector rowAbsSums(const Matrix &a);

/** Index of the maximum element (first on ties). */
std::size_t argmax(std::span<const float> a);

} // namespace tensor
} // namespace mflstm

#endif // MFLSTM_TENSOR_OPS_HH
