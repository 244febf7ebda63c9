#include "tensor/matrix.hh"

#include <algorithm>
#include <stdexcept>

namespace mflstm {
namespace tensor {

Matrix
vconcat(const std::vector<const Matrix *> &parts)
{
    if (parts.empty())
        return {};

    const std::size_t cols = parts.front()->cols();
    std::size_t rows = 0;
    for (const Matrix *part : parts) {
        if (part->cols() != cols)
            throw std::invalid_argument("vconcat: column mismatch");
        rows += part->rows();
    }

    Matrix out(rows, cols);
    std::size_t r = 0;
    for (const Matrix *part : parts) {
        std::copy(part->data(), part->data() + part->size(),
                  out.data() + r * cols);
        r += part->rows();
    }
    return out;
}

} // namespace tensor
} // namespace mflstm
