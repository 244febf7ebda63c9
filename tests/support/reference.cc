#include "support/reference.hh"

#include <algorithm>
#include <stdexcept>

namespace mflstm {
namespace test {

tensor::Matrix
vconcat(const std::vector<const tensor::Matrix *> &parts)
{
    if (parts.empty())
        return {};

    const std::size_t cols = parts.front()->cols();
    std::size_t rows = 0;
    for (const tensor::Matrix *part : parts) {
        if (part->cols() != cols)
            throw std::invalid_argument("vconcat: column mismatch");
        rows += part->rows();
    }

    tensor::Matrix out(rows, cols);
    std::size_t r = 0;
    for (const tensor::Matrix *part : parts) {
        std::copy(part->data(), part->data() + part->size(),
                  out.data() + r * cols);
        r += part->rows();
    }
    return out;
}

tensor::Matrix
dequantize(const tensor::QuantizedMatrix &q)
{
    tensor::Matrix out(q.rows(), q.cols());
    for (std::size_t r = 0; r < q.rows(); ++r)
        for (std::size_t c = 0; c < q.cols(); ++c)
            out.at(r, c) = q.dequant(r, c);
    return out;
}

} // namespace test
} // namespace mflstm
