/**
 * @file
 * Dense row-major matrix and vector containers used throughout the
 * reproduction. These are deliberately simple, cache-friendly value types:
 * the LSTM substrate (src/nn) and the functional approximation passes
 * (src/core) operate directly on them.
 */

#ifndef MFLSTM_TENSOR_MATRIX_HH
#define MFLSTM_TENSOR_MATRIX_HH

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace mflstm {
namespace tensor {

/** A dynamically sized dense vector of single-precision floats. */
class Vector
{
  public:
    Vector() = default;

    /** Construct a zero-initialised vector of the given size. */
    explicit Vector(std::size_t size) : data_(size, 0.0f) {}

    /** Construct a vector filled with a constant value. */
    Vector(std::size_t size, float fill) : data_(size, fill) {}

    /** Construct from an explicit initialiser list (mainly for tests). */
    Vector(std::initializer_list<float> init) : data_(init) {}

    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &operator[](std::size_t i) { assert(i < size()); return data_[i]; }
    float operator[](std::size_t i) const
    {
        assert(i < size());
        return data_[i];
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    std::span<float> span() { return {data_.data(), data_.size()}; }
    std::span<const float> span() const
    {
        return {data_.data(), data_.size()};
    }

    auto begin() { return data_.begin(); }
    auto end() { return data_.end(); }
    auto begin() const { return data_.begin(); }
    auto end() const { return data_.end(); }

    /** Reset every element to zero without reallocating. */
    void zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

    /** Resize, zero-filling any new elements. */
    void resize(std::size_t size) { data_.resize(size, 0.0f); }

    bool operator==(const Vector &other) const = default;

  private:
    std::vector<float> data_;
};

/**
 * A dense row-major matrix of single-precision floats.
 *
 * Rows are the unit of interest for the paper's Dynamic Row Skip: the
 * class exposes row spans so DRS can address and skip individual rows.
 */
class Matrix
{
  public:
    Matrix() = default;

    /** Construct a zero-initialised rows x cols matrix. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
    {}

    /** Construct filled with a constant value. */
    Matrix(std::size_t rows, std::size_t cols, float fill)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &at(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    float at(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    float &operator()(std::size_t r, std::size_t c) { return at(r, c); }
    float operator()(std::size_t r, std::size_t c) const { return at(r, c); }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Mutable view of one row. */
    std::span<float> row(std::size_t r)
    {
        assert(r < rows_);
        return {data_.data() + r * cols_, cols_};
    }

    /** Read-only view of one row. */
    std::span<const float> row(std::size_t r) const
    {
        assert(r < rows_);
        return {data_.data() + r * cols_, cols_};
    }

    /** Reset every element to zero without reallocating. */
    void zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

    /** Size of the backing store in bytes (what a DMA would move). */
    std::size_t bytes() const { return data_.size() * sizeof(float); }

    bool operator==(const Matrix &other) const = default;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/**
 * Vertically concatenate matrices that share a column count. Used to build
 * the united weight matrices U_{f,i,c,o} and W_{f,i,c,o} of Section II-C.
 */
Matrix vconcat(const std::vector<const Matrix *> &parts);

} // namespace tensor
} // namespace mflstm

#endif // MFLSTM_TENSOR_MATRIX_HH
