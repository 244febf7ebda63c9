#include "tensor/panel.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace mflstm {
namespace tensor {

namespace {

constexpr std::size_t kPanelRows = PanelMatrix::kPanelRows;

/**
 * Four adjacent rows' sums, one per lane. An explicit vector type, not
 * a float array the compiler may vectorise: GCC turns a plain array of
 * accumulators into a shuffle-heavy loop slower than tensor::gemv.
 */
typedef float Lanes __attribute__((vector_size(16)));
constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(float);
static_assert(kPanelRows == 4 * kLanes);

Lanes
load(const float *p)
{
    Lanes v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/**
 * out[k] = sum_c panel[c * kPanelRows + k] * x[c] for the rows of one
 * panel. Each lane starts at 0.0f and adds w * x column by column, in
 * ascending order, with the product rounded before the add: the same
 * operations tensor::gemv performs for that row.
 */
void
panelDot(const float *panel, const float *x, std::size_t cols, float *out)
{
    Lanes a0 = {}, a1 = {}, a2 = {}, a3 = {};
    for (std::size_t c = 0; c < cols; ++c, panel += kPanelRows) {
        const Lanes xc = {x[c], x[c], x[c], x[c]};
        a0 += load(panel) * xc;
        a1 += load(panel + kLanes) * xc;
        a2 += load(panel + 2 * kLanes) * xc;
        a3 += load(panel + 3 * kLanes) * xc;
    }
    std::memcpy(out, &a0, sizeof a0);
    std::memcpy(out + kLanes, &a1, sizeof a1);
    std::memcpy(out + 2 * kLanes, &a2, sizeof a2);
    std::memcpy(out + 3 * kLanes, &a3, sizeof a3);
}

} // anonymous namespace

PanelMatrix::PanelMatrix(const std::vector<const Matrix *> &parts)
{
    if (parts.empty())
        return;

    cols_ = parts.front()->cols();
    for (const Matrix *part : parts) {
        if (part->cols() != cols_)
            throw std::invalid_argument("PanelMatrix: column mismatch");
        rows_ += part->rows();
    }

    data_.assign(panels() * cols_ * kPanelRows, 0.0f);
    std::size_t r = 0;
    for (const Matrix *part : parts) {
        for (std::size_t i = 0; i < part->rows(); ++i, ++r) {
            const float *src = part->data() + i * cols_;
            float *dst = data_.data() +
                         (r / kPanelRows) * cols_ * kPanelRows +
                         r % kPanelRows;
            for (std::size_t c = 0; c < cols_; ++c)
                dst[c * kPanelRows] = src[c];
        }
    }
}

void
gemv(const PanelMatrix &a, std::span<const float> x, std::span<float> y)
{
    assert(x.size() == a.cols());
    assert(y.size() == a.rows());

    float out[kPanelRows];
    for (std::size_t p = 0; p < a.panels(); ++p) {
        const std::size_t first = p * kPanelRows;
        const std::size_t n = std::min(kPanelRows, a.rows() - first);
        panelDot(a.panel(p), x.data(), a.cols(), out);
        std::copy(out, out + n, y.data() + first);
    }
}

void
gemv(const PanelMatrix &a, const Vector &x, Vector &y)
{
    y.resize(a.rows());
    gemv(a, x.span(), y.span());
}

void
gemv(const PanelMatrix &a, const Vector &x, const Vector &b, Vector &y)
{
    assert(b.size() == a.rows());
    gemv(a, x, y);
    for (std::size_t r = 0; r < y.size(); ++r)
        y[r] += b[r];
}

void
gemvMasked(const PanelMatrix &a, const Vector &x,
           std::span<const std::uint8_t> skip, Vector &y)
{
    assert(x.size() == a.cols());
    assert(skip.size() == a.rows());
    y.resize(a.rows());

    float out[kPanelRows];
    for (std::size_t p = 0; p < a.panels(); ++p) {
        const std::size_t first = p * kPanelRows;
        const std::size_t n = std::min(kPanelRows, a.rows() - first);
        const std::uint8_t *mask = skip.data() + first;
        float *dst = y.data() + first;
        if (std::all_of(mask, mask + n,
                        [](std::uint8_t s) { return s != 0; })) {
            std::fill(dst, dst + n, 0.0f);
            continue;
        }
        panelDot(a.panel(p), x.data(), a.cols(), out);
        for (std::size_t k = 0; k < n; ++k)
            dst[k] = mask[k] ? 0.0f : out[k];
    }
}

} // namespace tensor
} // namespace mflstm
