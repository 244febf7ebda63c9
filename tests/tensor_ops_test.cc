/**
 * @file
 * Unit tests for the BLAS-style kernels (tensor/ops.hh). The row-skipping
 * GEMV that Dynamic Row Skip relies on is tested in tensor_panel_test.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/matrix.hh"
#include "tensor/ops.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm::tensor;

Matrix
randomMatrix(std::size_t r, std::size_t c, std::uint64_t seed)
{
    Rng rng(seed);
    Matrix m(r, c);
    rng.fillUniform(m, -1.0f, 1.0f);
    return m;
}

Vector
randomVector(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Vector v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = rng.uniform(-1.0f, 1.0f);
    return v;
}

TEST(Gemv, MatchesManualSmallCase)
{
    Matrix a(2, 3);
    float vals[] = {1, 2, 3, 4, 5, 6};
    std::copy(std::begin(vals), std::end(vals), a.data());
    Vector x{1.0f, 0.0f, -1.0f};

    Vector y;
    gemv(a, x, y);
    ASSERT_EQ(y.size(), 2u);
    EXPECT_FLOAT_EQ(y[0], 1.0f - 3.0f);
    EXPECT_FLOAT_EQ(y[1], 4.0f - 6.0f);
}

TEST(Gemv, BiasVariantAddsBias)
{
    Matrix a(2, 2);
    a(0, 0) = 1.0f;
    a(1, 1) = 1.0f;
    Vector x{2.0f, 3.0f};
    Vector b{10.0f, 20.0f};

    Vector y;
    gemv(a, x, b, y);
    EXPECT_FLOAT_EQ(y[0], 12.0f);
    EXPECT_FLOAT_EQ(y[1], 23.0f);
}

TEST(GemvT, MatchesExplicitTranspose)
{
    const Matrix a = randomMatrix(4, 7, 5);
    const Vector x = randomVector(4, 6);

    Vector y;
    gemvT(a, x, y);

    ASSERT_EQ(y.size(), 7u);
    for (std::size_t c = 0; c < 7; ++c) {
        float expect = 0.0f;
        for (std::size_t r = 0; r < 4; ++r)
            expect += a(r, c) * x[r];
        EXPECT_NEAR(y[c], expect, 1e-5f);
    }
}

TEST(Ger, Rank1UpdateAccumulates)
{
    Matrix a(2, 3, 1.0f);
    Vector x{1.0f, 2.0f};
    Vector y{3.0f, 4.0f, 5.0f};

    ger(2.0f, x, y, a);
    EXPECT_FLOAT_EQ(a(0, 0), 1.0f + 2.0f * 1.0f * 3.0f);
    EXPECT_FLOAT_EQ(a(1, 2), 1.0f + 2.0f * 2.0f * 5.0f);
}

TEST(Gemm, MatchesNaiveReference)
{
    const Matrix a = randomMatrix(33, 70, 7);
    const Matrix b = randomMatrix(70, 41, 8);

    Matrix c;
    gemm(a, b, c);

    ASSERT_EQ(c.rows(), 33u);
    ASSERT_EQ(c.cols(), 41u);
    for (std::size_t i = 0; i < 33; i += 11) {
        for (std::size_t j = 0; j < 41; j += 13) {
            float expect = 0.0f;
            for (std::size_t k = 0; k < 70; ++k)
                expect += a(i, k) * b(k, j);
            EXPECT_NEAR(c(i, j), expect, 1e-4f);
        }
    }
}

TEST(Gemm, IdentityIsNoop)
{
    const Matrix a = randomMatrix(5, 5, 9);
    Matrix eye(5, 5);
    for (std::size_t i = 0; i < 5; ++i)
        eye(i, i) = 1.0f;

    Matrix c;
    gemm(a, eye, c);
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 5; ++j)
            EXPECT_NEAR(c(i, j), a(i, j), 1e-6f);
}

TEST(GemmBias, BroadcastsDownColumns)
{
    Matrix a(2, 2);
    a(0, 0) = 1.0f;
    a(1, 1) = 1.0f;
    Matrix b(2, 3, 1.0f);
    Vector bias{5.0f, -5.0f};

    Matrix c;
    gemmBias(a, b, bias, c);
    for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_FLOAT_EQ(c(0, j), 1.0f + 5.0f);
        EXPECT_FLOAT_EQ(c(1, j), 1.0f - 5.0f);
    }
}

TEST(Elementwise, AddHadamardAxpy)
{
    Vector a{1.0f, 2.0f};
    Vector b{3.0f, 5.0f};
    Vector out(2);

    add(a.span(), b.span(), out.span());
    EXPECT_FLOAT_EQ(out[1], 7.0f);

    hadamard(a.span(), b.span(), out.span());
    EXPECT_FLOAT_EQ(out[1], 10.0f);

    axpy(2.0f, a.span(), b.span());
    EXPECT_FLOAT_EQ(b[0], 5.0f);
    EXPECT_FLOAT_EQ(b[1], 9.0f);
}

TEST(Reductions, SumAbsDotArgmaxNorm)
{
    Vector a{-1.0f, 2.0f, -3.0f};
    EXPECT_FLOAT_EQ(sumAbs(a.span()), 6.0f);

    Vector b{1.0f, 1.0f, 1.0f};
    EXPECT_FLOAT_EQ(dot(a.span(), b.span()), -2.0f);

    EXPECT_EQ(argmax(a.span()), 1u);
    EXPECT_NEAR(norm2(b.span()), std::sqrt(3.0f), 1e-6f);
}

TEST(Reductions, RowAbsSumsPerRow)
{
    Matrix m(2, 2);
    m(0, 0) = -1.0f;
    m(0, 1) = 2.0f;
    m(1, 0) = 3.0f;
    m(1, 1) = -4.0f;

    const Vector d = rowAbsSums(m);
    EXPECT_FLOAT_EQ(d[0], 3.0f);
    EXPECT_FLOAT_EQ(d[1], 7.0f);
}

TEST(Reductions, MeanAbsDiff)
{
    Vector a{1.0f, 2.0f};
    Vector b{2.0f, 4.0f};
    EXPECT_FLOAT_EQ(meanAbsDiff(a.span(), b.span()), 1.5f);
    EXPECT_FLOAT_EQ(meanAbsDiff(a.span(), a.span()), 0.0f);
}

} // namespace
