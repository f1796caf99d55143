#pragma once

#include <vector>

#include "stats/linalg.hpp"

namespace ecotune::stats {

/// Ordinary-least-squares fit result.
struct OlsResult {
  /// Coefficients; index 0 is the intercept when fitted with one, followed
  /// by one coefficient per feature column.
  std::vector<double> coefficients;
  bool has_intercept = true;
  double r_squared = 0.0;
  double adjusted_r_squared = 0.0;
  double mse = 0.0;
  std::vector<double> residuals;

  /// Predicts for one feature row (without intercept column).
  [[nodiscard]] double predict(const std::vector<double>& features) const;
};

/// Fits y ~ X by OLS via normal equations (Cholesky with ridge fallback for
/// collinear designs). X is samples x features, without intercept column.
[[nodiscard]] OlsResult ols_fit(const Matrix& x, const std::vector<double>& y,
                                bool intercept = true);

/// Variance Inflation Factor of feature `j`: 1 / (1 - R^2) of regressing
/// X_j on the remaining features. VIF > 10 conventionally signals harmful
/// multicollinearity (paper Sec. IV-B).
[[nodiscard]] double vif(const Matrix& x, std::size_t j);

/// VIF for every feature column.
[[nodiscard]] std::vector<double> vif_all(const Matrix& x);

}  // namespace ecotune::stats
