#include "stats/linalg.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ecotune::stats {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

std::span<double> Matrix::row_span(std::size_t r) {
  ensure(r < rows_, "Matrix::row_span: out of range");
  return {data_.data() + r * cols_, cols_};
}

std::vector<double> Matrix::col(std::size_t c) const {
  ensure(c < cols_, "Matrix::col: out of range");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  ensure(cols_ == rhs.rows_, "Matrix::operator*: dimension mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j)
        out(i, j) += a * rhs(k, j);
    }
  }
  return out;
}

namespace {

/// In-place Cholesky; returns false if not positive definite.
bool cholesky(Matrix& a) {
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = a(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    if (d <= 0.0 || !std::isfinite(d)) return false;
    a(j, j) = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / a(j, j);
    }
  }
  return true;
}

}  // namespace

std::vector<double> solve_spd(Matrix a, const std::vector<double>& b,
                              double ridge) {
  ensure(a.rows() == a.cols(), "solve_spd: matrix must be square");
  ensure(a.rows() == b.size(), "solve_spd: rhs size mismatch");
  const std::size_t n = a.rows();

  Matrix chol = a;
  double lambda = ridge;
  for (int attempt = 0; attempt < 24; ++attempt) {
    chol = a;
    if (lambda > 0)
      for (std::size_t i = 0; i < n; ++i) chol(i, i) += lambda;
    if (cholesky(chol)) break;
    lambda = lambda > 0 ? lambda * 10.0 : 1e-10;
    ensure(attempt < 23, "solve_spd: matrix not positive definite");
  }

  // Forward substitution: L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= chol(i, k) * y[k];
    y[i] = s / chol(i, i);
  }
  // Back substitution: L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= chol(k, ii) * x[k];
    x[ii] = s / chol(ii, ii);
  }
  return x;
}

}  // namespace ecotune::stats
