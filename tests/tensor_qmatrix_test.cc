/**
 * @file
 * Tests for the quantized weight container: the per-row error bound,
 * the symmetric code range, canonical int4 packing and idempotent
 * quantize-dequantize (what fake-quant relies on).
 */

#include <cmath>

#include <gtest/gtest.h>

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

} // namespace
