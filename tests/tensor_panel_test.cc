/**
 * @file
 * Tests for the panel-packed GEMV (tensor/panel.hh): every output is
 * memcmp-identical to the row-major tensor::gemv reference, over row
 * counts that are and are not multiples of the panel height, single
 * columns, several matrices packed into one panel set, and the skip
 * masks Dynamic Row Skip produces.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/matrix.hh"
#include "tensor/ops.hh"
#include "tensor/panel.hh"
#include "tensor/rng.hh"

namespace {

using namespace mflstm::tensor;

constexpr std::size_t kP = PanelMatrix::kPanelRows;

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

/** Same size and the same bytes: stricter than operator== on floats. */
::testing::AssertionResult
sameBytes(const Vector &a, const Vector &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(a.data() + i, b.data() + i, sizeof(float)) != 0)
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << a[i] << " vs " << b[i];
    }
    return ::testing::AssertionSuccess();
}

/** The reference masked product: tensor::gemv, skipped rows zeroed. */
Vector
maskedReference(const Matrix &a, const Vector &x,
                const std::vector<std::uint8_t> &skip)
{
    Vector y;
    gemv(a, x, y);
    for (std::size_t r = 0; r < y.size(); ++r) {
        if (skip[r])
            y[r] = 0.0f;
    }
    return y;
}

TEST(PanelGemv, BitIdenticalToGemvOverShapes)
{
    std::uint64_t seed = 1;
    for (std::size_t rows : {1u, 3u, 15u, 16u, 17u, 33u, 120u, 160u,
                             224u}) {
        for (std::size_t cols : {1u, 2u, 5u, 40u, 48u, 56u}) {
            const Matrix a = randomMatrix(rows, cols, seed++);
            const Vector x = randomVector(cols, seed++);
            const Vector b = randomVector(rows, seed++);
            const PanelMatrix packed(a);
            ASSERT_EQ(packed.rows(), rows);
            ASSERT_EQ(packed.cols(), cols);
            ASSERT_EQ(packed.panels(), (rows + kP - 1) / kP);

            Vector want, got;
            gemv(a, x, want);
            gemv(packed, x, got);
            EXPECT_TRUE(sameBytes(got, want)) << rows << "x" << cols;

            gemv(a, x, b, want);
            gemv(packed, x, b, got);
            EXPECT_TRUE(sameBytes(got, want)) << rows << "x" << cols
                                              << " + bias";
        }
    }
}

TEST(PanelGemv, SignedZeroAndNonFiniteValuesMatchGemv)
{
    // A row of -0.0 products sums to +0.0 from the 0.0f start; inf and
    // NaN propagate per row exactly as the scalar loop does.
    Matrix a(18, 3);
    for (std::size_t c = 0; c < 3; ++c) {
        a(0, c) = -0.0f;
        a(1, c) = std::numeric_limits<float>::infinity();
        a(17, c) = std::numeric_limits<float>::quiet_NaN();
    }
    a(2, 1) = 1e30f;
    a(2, 2) = -1e30f;
    const Vector x{1.0f, 1e10f, 1e10f};

    Vector want, got;
    gemv(a, x, want);
    gemv(PanelMatrix(a), x, got);
    EXPECT_TRUE(sameBytes(got, want));
}

TEST(PanelGemv, SeveralMatricesPackLikeVconcat)
{
    // The fused U_{f,i,c} of an H = 40 layer: 120 rows, so the second
    // part starts mid-panel.
    const Matrix f = randomMatrix(40, 40, 11);
    const Matrix i = randomMatrix(40, 40, 12);
    const Matrix c = randomMatrix(40, 40, 13);
    const Vector x = randomVector(40, 14);

    const PanelMatrix packed({&f, &i, &c});
    ASSERT_EQ(packed.rows(), 120u);

    Vector want, got;
    gemv(vconcat({&f, &i, &c}), x, want);
    gemv(packed, x, got);
    EXPECT_TRUE(sameBytes(got, want));
}

TEST(PanelGemv, ColumnMismatchRejected)
{
    const Matrix a(4, 3);
    const Matrix b(4, 5);
    EXPECT_THROW(PanelMatrix({&a, &b}), std::invalid_argument);
}

TEST(PanelGemv, EmptyMatrixGivesEmptyOutput)
{
    const PanelMatrix packed{Matrix()};
    Vector y(3);
    gemv(packed, Vector(), y);
    EXPECT_EQ(y.size(), 0u);
}

TEST(GemvMasked, SkippedRowsAreZeroOthersExact)
{
    const Matrix a = randomMatrix(8, 5, 42);
    const Vector x = randomVector(5, 43);

    Vector full;
    gemv(a, x, full);
    std::vector<std::uint8_t> skip(8, 0);
    skip[1] = skip[4] = skip[7] = 1;
    Vector skipped;
    gemvMasked(PanelMatrix(a), x, skip, skipped);

    for (std::size_t r = 0; r < 8; ++r) {
        if (skip[r])
            EXPECT_FLOAT_EQ(skipped[r], 0.0f) << "row " << r;
        else
            EXPECT_FLOAT_EQ(skipped[r], full[r]) << "row " << r;
    }
}

TEST(GemvMasked, EmptySkipListMatchesGemv)
{
    const Matrix a = randomMatrix(6, 6, 1);
    const Vector x = randomVector(6, 2);

    Vector full, skipped;
    gemv(a, x, full);
    gemvMasked(PanelMatrix(a), x, std::vector<std::uint8_t>(6, 0),
               skipped);
    EXPECT_TRUE(sameBytes(skipped, full));
}

TEST(GemvMasked, BitIdenticalUnderEveryMaskKind)
{
    // 3 x 40 rows = 7.5 panels. Masks: none, every other row (every
    // panel mixed), whole panels skipped next to mixed and clear ones,
    // a partial last panel skipped whole, and everything.
    const std::size_t rows = 120;
    const Matrix a = randomMatrix(rows, 40, 21);
    const Vector x = randomVector(40, 22);
    const PanelMatrix packed(a);

    std::vector<std::vector<std::uint8_t>> masks;
    masks.emplace_back(rows, 0);
    masks.emplace_back(rows, 0);
    for (std::size_t r = 0; r < rows; r += 2)
        masks.back()[r] = 1;
    masks.emplace_back(rows, 0);
    for (std::size_t r = kP; r < 3 * kP; ++r)
        masks.back()[r] = 1;  // panels 1 and 2 whole
    masks.back()[3 * kP + 5] = 1;  // panel 3 mixed
    masks.emplace_back(rows, 0);
    for (std::size_t r = 7 * kP; r < rows; ++r)
        masks.back()[r] = 1;  // the 8-row tail panel whole
    masks.emplace_back(rows, 1);
    Rng rng(23);
    masks.emplace_back(rows, 0);
    for (std::uint8_t &m : masks.back())
        m = rng.uniform(0.0f, 1.0f) < 0.3f ? 1 : 0;

    for (std::size_t k = 0; k < masks.size(); ++k) {
        Vector got;
        gemvMasked(packed, x, masks[k], got);
        EXPECT_TRUE(sameBytes(got, maskedReference(a, x, masks[k])))
            << "mask " << k;
    }
}

TEST(GemvMasked, SkippedRowsAreZeroEvenOverNaNWeights)
{
    // A skipped row is written as 0.0f, never as its computed value:
    // NaN weights in it do not leak, whether its panel is skipped whole
    // (panel 1) or computed as a mixed panel (row 3 of panel 0).
    Matrix a = randomMatrix(2 * kP, 4, 31);
    for (std::size_t r = kP; r < 2 * kP; ++r)
        a(r, 0) = std::numeric_limits<float>::quiet_NaN();
    a(3, 1) = std::numeric_limits<float>::quiet_NaN();
    std::vector<std::uint8_t> skip(2 * kP, 0);
    for (std::size_t r = kP; r < 2 * kP; ++r)
        skip[r] = 1;
    skip[3] = 1;

    Vector y;
    gemvMasked(PanelMatrix(a), randomVector(4, 32), skip, y);
    for (std::size_t r = 0; r < 2 * kP; ++r) {
        if (skip[r])
            EXPECT_EQ(y[r], 0.0f) << "row " << r;
        else
            EXPECT_FALSE(std::isnan(y[r])) << "row " << r;
    }
}

} // namespace
