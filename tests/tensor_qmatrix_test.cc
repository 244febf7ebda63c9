/**
 * @file
 * Tests for the quantized weight container and its dequantize-in-register
 * reference kernels: the per-row error bound, canonical int4 packing,
 * exact agreement between the quantized kernels and a dense GEMV over
 * the dequantized matrix, and the row-skip contract DRS relies on.
 */

#include <cmath>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/ops.hh"
#include "tensor/panel.hh"
#include "tensor/qmatrix.hh"

namespace {

using namespace mflstm;
using namespace mflstm::tensor;
using quant::QuantMode;

Matrix
patternMatrix(std::size_t rows, std::size_t cols, unsigned seed = 7)
{
    // Deterministic mixed-sign, mixed-magnitude values.
    Matrix m(rows, cols);
    unsigned state = seed;
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            state = state * 1664525u + 1013904223u;
            const float u =
                static_cast<float>(state >> 8) /
                static_cast<float>(1u << 24);  // [0, 1)
            m.at(r, c) = (u - 0.5f) * 2.0f * (1.0f + 0.1f * r);
        }
    }
    return m;
}

Vector
patternVector(std::size_t n, unsigned seed = 3)
{
    Vector v(n);
    unsigned state = seed;
    for (std::size_t i = 0; i < n; ++i) {
        state = state * 1664525u + 1013904223u;
        v[i] = static_cast<float>(state >> 8) /
                   static_cast<float>(1u << 24) -
               0.5f;
    }
    return v;
}

TEST(QuantizedMatrix, Int8ErrorWithinHalfScale)
{
    const Matrix m = patternMatrix(9, 13);
    const QuantizedMatrix q = QuantizedMatrix::quantize(m, QuantMode::Int8);
    ASSERT_EQ(q.rows(), 9u);
    ASSERT_EQ(q.cols(), 13u);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            EXPECT_LE(std::fabs(q.dequant(r, c) - m.at(r, c)),
                      q.scale(r) / 2.0f + 1e-7f)
                << "at (" << r << ", " << c << ")";
        }
    }
}

TEST(QuantizedMatrix, Int4ErrorWithinHalfScale)
{
    const Matrix m = patternMatrix(6, 7);  // odd cols exercise packing
    const QuantizedMatrix q = QuantizedMatrix::quantize(m, QuantMode::Int4);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            EXPECT_LE(std::fabs(q.dequant(r, c) - m.at(r, c)),
                      q.scale(r) / 2.0f + 1e-7f);
        }
    }
}

TEST(QuantizedMatrix, CodesStayInSymmetricRange)
{
    const Matrix m = patternMatrix(8, 8);
    const QuantizedMatrix q8 = QuantizedMatrix::quantize(m, QuantMode::Int8);
    const QuantizedMatrix q4 = QuantizedMatrix::quantize(m, QuantMode::Int4);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            EXPECT_GE(q8.code(r, c), -127);
            EXPECT_LE(q8.code(r, c), 127);
            EXPECT_GE(q4.code(r, c), -7);
            EXPECT_LE(q4.code(r, c), 7);
        }
    }
}

TEST(QuantizedMatrix, ZeroRowGetsFiniteNonZeroScale)
{
    Matrix m(3, 4);
    m.at(1, 2) = 0.5f;  // rows 0 and 2 stay all-zero
    const QuantizedMatrix q = QuantizedMatrix::quantize(m, QuantMode::Int8);
    EXPECT_EQ(q.scale(0), 1.0f);
    EXPECT_EQ(q.scale(2), 1.0f);
    for (std::size_t c = 0; c < 4; ++c) {
        EXPECT_EQ(q.code(0, c), 0);
        EXPECT_EQ(q.dequant(0, c), 0.0f);
    }
}

TEST(QuantizedMatrix, AbsmaxIsExactlyRepresentable)
{
    // The row maximum maps to exactly +/-qmax and round-trips to itself.
    Matrix m(1, 3);
    m.at(0, 0) = 0.1f;
    m.at(0, 1) = -2.0f;  // the absmax
    m.at(0, 2) = 1.0f;
    const QuantizedMatrix q = QuantizedMatrix::quantize(m, QuantMode::Int8);
    EXPECT_EQ(q.code(0, 1), -127);
    EXPECT_FLOAT_EQ(q.dequant(0, 1), -2.0f);
}

TEST(QuantizedMatrix, Int4PackingIsCanonical)
{
    // Odd column count: the trailing byte's high nibble must be zero,
    // and packedRowBytes reflects two codes per byte.
    const Matrix m = patternMatrix(4, 5);
    const QuantizedMatrix q = QuantizedMatrix::quantize(m, QuantMode::Int4);
    EXPECT_EQ(q.packedRowBytes(), 3u);
    EXPECT_EQ(q.payload().size(), 4u * 3u);
    for (std::size_t r = 0; r < 4; ++r) {
        const std::int8_t last = q.payload()[r * 3 + 2];
        EXPECT_EQ((static_cast<unsigned>(last) >> 4) & 0xF, 0u)
            << "trailing high nibble of row " << r;
    }
}

TEST(QuantizedMatrix, FromPartsRoundTripsExactly)
{
    const Matrix m = patternMatrix(5, 6);
    for (const QuantMode mode : {QuantMode::Int8, QuantMode::Int4}) {
        const QuantizedMatrix q = QuantizedMatrix::quantize(m, mode);
        const QuantizedMatrix r = QuantizedMatrix::fromParts(
            q.rows(), q.cols(), q.mode(),
            std::vector<float>(q.scales()),
            std::vector<std::int8_t>(q.payload()));
        EXPECT_EQ(q, r);
    }
}

TEST(QuantizedMatrix, QuantizeIsIdempotent)
{
    // Quantizing an already quantize-dequantized matrix reproduces it:
    // every value is representable at its row's scale.
    const Matrix m = patternMatrix(7, 9);
    for (const QuantMode mode : {QuantMode::Int8, QuantMode::Int4}) {
        const Matrix once =
            QuantizedMatrix::quantize(m, mode).dequantize();
        const Matrix twice =
            QuantizedMatrix::quantize(once, mode).dequantize();
        EXPECT_EQ(once, twice);
    }
}

TEST(QuantKernels, GemvMatchesDequantizedDense)
{
    const Matrix m = patternMatrix(10, 12);
    const Vector x = patternVector(12);
    for (const QuantMode mode : {QuantMode::Int8, QuantMode::Int4}) {
        const QuantizedMatrix q = QuantizedMatrix::quantize(m, mode);

        Vector yq;
        gemvQuant(q, x, yq);
        Vector yd;
        gemv(q.dequantize(), x, yd);
        ASSERT_EQ(yq.size(), yd.size());
        for (std::size_t r = 0; r < yq.size(); ++r)
            EXPECT_NEAR(yq[r], yd[r], 1e-5f);
    }
}

TEST(QuantKernels, GemvWithBias)
{
    const Matrix m = patternMatrix(6, 8);
    const Vector x = patternVector(8);
    const Vector b = patternVector(6, 11);
    const QuantizedMatrix q = QuantizedMatrix::quantize(m, QuantMode::Int8);

    Vector with_bias, without_bias;
    gemvQuant(q, x, b, with_bias);
    gemvQuant(q, x, without_bias);
    for (std::size_t r = 0; r < 6; ++r)
        EXPECT_NEAR(with_bias[r], without_bias[r] + b[r], 1e-6f);
}

TEST(QuantKernels, RowSkipMatchesDenseRowSkip)
{
    const Matrix m = patternMatrix(8, 8);
    const Vector x = patternVector(8);
    const std::vector<std::uint32_t> skip = {1, 4, 7};
    const QuantizedMatrix q = QuantizedMatrix::quantize(m, QuantMode::Int8);

    Vector yq;
    gemvQuantRowSkip(q, x, skip, yq);
    std::vector<std::uint8_t> mask(8, 0);
    for (const std::uint32_t r : skip)
        mask[r] = 1;
    Vector yd;
    gemvMasked(PanelMatrix(q.dequantize()), x, mask, yd);
    ASSERT_EQ(yq.size(), yd.size());
    for (std::size_t r = 0; r < yq.size(); ++r)
        EXPECT_NEAR(yq[r], yd[r], 1e-6f);
    for (const std::uint32_t r : skip)
        EXPECT_EQ(yq[r], 0.0f);
}

TEST(QuantKernels, GemmMatchesDequantizedDense)
{
    const Matrix a = patternMatrix(5, 7);
    const Matrix b = patternMatrix(7, 4, 21);
    const QuantizedMatrix q = QuantizedMatrix::quantize(a, QuantMode::Int8);

    Matrix cq;
    gemmQuant(q, b, cq);
    Matrix cd;
    gemm(q.dequantize(), b, cd);
    ASSERT_EQ(cq.rows(), cd.rows());
    ASSERT_EQ(cq.cols(), cd.cols());
    for (std::size_t r = 0; r < cq.rows(); ++r)
        for (std::size_t c = 0; c < cq.cols(); ++c)
            EXPECT_NEAR(cq.at(r, c), cd.at(r, c), 1e-5f);
}

} // namespace
