#include "tensor/ops.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace mflstm {
namespace tensor {

void
gemv(const Matrix &a, const Vector &x, Vector &y)
{
    assert(x.size() == a.cols());
    y.resize(a.rows());

    const std::size_t cols = a.cols();
    for (std::size_t r = 0; r < a.rows(); ++r) {
        const float *row = a.data() + r * cols;
        float acc = 0.0f;
        for (std::size_t c = 0; c < cols; ++c)
            acc += row[c] * x[c];
        y[r] = acc;
    }
}

void
gemv(const Matrix &a, const Vector &x, const Vector &b, Vector &y)
{
    assert(b.size() == a.rows());
    gemv(a, x, y);
    for (std::size_t r = 0; r < y.size(); ++r)
        y[r] += b[r];
}

void
gemvT(const Matrix &a, const Vector &x, Vector &y)
{
    assert(x.size() == a.rows());
    y.resize(a.cols());
    y.zero();

    const std::size_t cols = a.cols();
    for (std::size_t r = 0; r < a.rows(); ++r) {
        const float xv = x[r];
        if (xv == 0.0f)
            continue;
        const float *row = a.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c)
            y[c] += xv * row[c];
    }
}

void
ger(float alpha, const Vector &x, const Vector &y, Matrix &a)
{
    assert(x.size() == a.rows() && y.size() == a.cols());
    const std::size_t cols = a.cols();
    for (std::size_t r = 0; r < a.rows(); ++r) {
        const float xv = alpha * x[r];
        if (xv == 0.0f)
            continue;
        float *row = a.data() + r * cols;
        for (std::size_t c = 0; c < cols; ++c)
            row[c] += xv * y[c];
    }
}

namespace {

// Cache-blocking tile edge for GEMM. 64x64 fp32 tiles (16 KiB) keep three
// operands resident in a typical 128-256 KiB L2 slice.
constexpr std::size_t gemmTile = 64;

} // anonymous namespace

void
gemm(const Matrix &a, const Matrix &b, Matrix &c)
{
    assert(a.cols() == b.rows());
    c = Matrix(a.rows(), b.cols());

    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();

    for (std::size_t i0 = 0; i0 < m; i0 += gemmTile) {
        const std::size_t i1 = std::min(i0 + gemmTile, m);
        for (std::size_t k0 = 0; k0 < k; k0 += gemmTile) {
            const std::size_t k1 = std::min(k0 + gemmTile, k);
            for (std::size_t i = i0; i < i1; ++i) {
                const float *arow = a.data() + i * k;
                float *crow = c.data() + i * n;
                for (std::size_t kk = k0; kk < k1; ++kk) {
                    const float av = arow[kk];
                    const float *brow = b.data() + kk * n;
                    for (std::size_t j = 0; j < n; ++j)
                        crow[j] += av * brow[j];
                }
            }
        }
    }
}

void
add(std::span<const float> a, std::span<const float> b, std::span<float> out)
{
    assert(a.size() == b.size() && a.size() == out.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] + b[i];
}

float
sumAbs(std::span<const float> a)
{
    float acc = 0.0f;
    for (float v : a)
        acc += std::fabs(v);
    return acc;
}

Vector
rowAbsSums(const Matrix &a)
{
    Vector d(a.rows());
    for (std::size_t r = 0; r < a.rows(); ++r)
        d[r] = sumAbs(a.row(r));
    return d;
}

std::size_t
argmax(std::span<const float> a)
{
    assert(!a.empty());
    return static_cast<std::size_t>(
        std::max_element(a.begin(), a.end()) - a.begin());
}

} // namespace tensor
} // namespace mflstm
