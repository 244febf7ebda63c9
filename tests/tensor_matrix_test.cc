/**
 * @file
 * Unit tests for the dense containers (tensor/matrix.hh).
 */

#include <gtest/gtest.h>

#include "tensor/matrix.hh"

namespace {

using mflstm::tensor::Matrix;
using mflstm::tensor::Vector;
using mflstm::tensor::vconcat;

TEST(Vector, ConstructsZeroed)
{
    Vector v(4);
    EXPECT_EQ(v.size(), 4u);
    for (std::size_t i = 0; i < v.size(); ++i)
        EXPECT_FLOAT_EQ(v[i], 0.0f);
}

TEST(Vector, FillAndZero)
{
    Vector v(3, 2.5f);
    EXPECT_FLOAT_EQ(v[0], 2.5f);
    EXPECT_FLOAT_EQ(v[2], 2.5f);
    v.zero();
    EXPECT_FLOAT_EQ(v[1], 0.0f);
}

TEST(Vector, InitializerListAndEquality)
{
    Vector a{1.0f, 2.0f, 3.0f};
    Vector b{1.0f, 2.0f, 3.0f};
    Vector c{1.0f, 2.0f, 4.0f};
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Vector, ResizePreservesAndZeroFills)
{
    Vector v{1.0f, 2.0f};
    v.resize(4);
    EXPECT_FLOAT_EQ(v[0], 1.0f);
    EXPECT_FLOAT_EQ(v[1], 2.0f);
    EXPECT_FLOAT_EQ(v[3], 0.0f);
}

TEST(Matrix, RowMajorIndexing)
{
    Matrix m(2, 3);
    m(0, 0) = 1.0f;
    m(0, 2) = 3.0f;
    m(1, 1) = 5.0f;
    EXPECT_FLOAT_EQ(m.data()[0], 1.0f);
    EXPECT_FLOAT_EQ(m.data()[2], 3.0f);
    EXPECT_FLOAT_EQ(m.data()[4], 5.0f);
}

TEST(Matrix, RowSpanAliasesStorage)
{
    Matrix m(3, 2);
    auto row = m.row(1);
    row[0] = 7.0f;
    EXPECT_FLOAT_EQ(m(1, 0), 7.0f);
    EXPECT_EQ(row.size(), 2u);
}

TEST(Matrix, BytesReflectsFootprint)
{
    Matrix m(8, 16);
    EXPECT_EQ(m.bytes(), 8u * 16u * sizeof(float));
}

TEST(Matrix, VconcatStacksRows)
{
    Matrix a(1, 2);
    a(0, 0) = 1.0f;
    a(0, 1) = 2.0f;
    Matrix b(2, 2);
    b(0, 0) = 3.0f;
    b(1, 1) = 4.0f;

    Matrix c = vconcat({&a, &b});
    ASSERT_EQ(c.rows(), 3u);
    ASSERT_EQ(c.cols(), 2u);
    EXPECT_FLOAT_EQ(c(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(c(1, 0), 3.0f);
    EXPECT_FLOAT_EQ(c(2, 1), 4.0f);
}

TEST(Matrix, VconcatRejectsColumnMismatch)
{
    Matrix a(1, 2);
    Matrix b(1, 3);
    EXPECT_THROW(vconcat({&a, &b}), std::invalid_argument);
}

} // namespace
