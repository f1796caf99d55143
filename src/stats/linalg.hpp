#pragma once

#include <span>
#include <vector>

#include "common/simd.hpp"

namespace ecotune::stats {

/// Dense row-major matrix of doubles. Deliberately small: exactly the
/// operations the regression pipeline and the neural network need.
/// Storage is 64-byte aligned so the SIMD kernel layer can use aligned
/// vector loads over feature batches without copying.
class Matrix {
 public:
  Matrix() = default;
  /// rows x cols, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] const simd::aligned_vector<double>& data() const {
    return data_;
  }

  /// One row as a non-owning view into the row-major storage. The view is
  /// invalidated by any operation that reallocates the matrix; it lets the
  /// batched prediction path fill feature rows without a heap allocation
  /// per row.
  [[nodiscard]] std::span<double> row_span(std::size_t r);
  /// One column as a vector copy.
  [[nodiscard]] std::vector<double> col(std::size_t c) const;

  [[nodiscard]] Matrix transpose() const;
  [[nodiscard]] Matrix operator*(const Matrix& rhs) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  simd::aligned_vector<double> data_;
};

/// Solves A x = b for symmetric positive-definite A via Cholesky; if the
/// factorization fails (rank deficiency / collinearity), retries with a
/// ridge term lambda*I growing until it succeeds.
[[nodiscard]] std::vector<double> solve_spd(Matrix a,
                                            const std::vector<double>& b,
                                            double ridge = 0.0);

}  // namespace ecotune::stats
