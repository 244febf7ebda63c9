#include "tensor/qmatrix.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mflstm {
namespace tensor {

namespace {

/** Quantize one fp32 value against a row scale. */
inline int
encode(float w, float inv_scale, int qmax)
{
    const int q =
        static_cast<int>(std::lround(static_cast<double>(w) * inv_scale));
    return std::clamp(q, -qmax, qmax);
}

/** Sign-extend the low nibble of a packed int4 byte. */
inline int
lowNibble(std::int8_t byte)
{
    const int v = byte & 0x0f;
    return v >= 8 ? v - 16 : v;
}

inline int
highNibble(std::int8_t byte)
{
    const int v = (byte >> 4) & 0x0f;
    return v >= 8 ? v - 16 : v;
}

} // namespace

std::size_t
QuantizedMatrix::packedRowBytes() const
{
    return mode_ == quant::QuantMode::Int4 ? (cols_ + 1) / 2 : cols_;
}

QuantizedMatrix
QuantizedMatrix::quantize(const Matrix &m, quant::QuantMode mode)
{
    assert(mode != quant::QuantMode::Fp32 &&
           "quantize() needs an integer mode");
    QuantizedMatrix out;
    out.rows_ = m.rows();
    out.cols_ = m.cols();
    out.mode_ = mode;
    out.scales_.resize(m.rows());
    out.data_.assign(m.rows() * out.packedRowBytes(), 0);

    const int qm = quant::qmax(mode);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        float absmax = 0.0f;
        for (const float w : m.row(r))
            absmax = std::max(absmax, std::fabs(w));
        // A zero row keeps scale 1: every code is 0, the dequantized
        // row is exactly zero, and the scale stays finite and non-zero.
        const float s =
            absmax > 0.0f ? absmax / static_cast<float>(qm) : 1.0f;
        out.scales_[r] = s;
        const float inv = 1.0f / s;
        std::int8_t *row = out.data_.data() + r * out.packedRowBytes();
        if (mode == quant::QuantMode::Int8) {
            for (std::size_t c = 0; c < m.cols(); ++c)
                row[c] = static_cast<std::int8_t>(
                    encode(m.at(r, c), inv, qm));
        } else {
            for (std::size_t c = 0; c < m.cols(); ++c) {
                const int q = encode(m.at(r, c), inv, qm) & 0x0f;
                if ((c & 1) == 0)
                    row[c / 2] = static_cast<std::int8_t>(q);
                else
                    row[c / 2] = static_cast<std::int8_t>(
                        (row[c / 2] & 0x0f) | (q << 4));
            }
        }
    }
    return out;
}

int
QuantizedMatrix::code(std::size_t r, std::size_t c) const
{
    assert(r < rows_ && c < cols_);
    const std::int8_t *row = data_.data() + r * packedRowBytes();
    if (mode_ == quant::QuantMode::Int8)
        return row[c];
    return (c & 1) == 0 ? lowNibble(row[c / 2]) : highNibble(row[c / 2]);
}

} // namespace tensor
} // namespace mflstm
