#include "stats/regression.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "stats/descriptive.hpp"

namespace ecotune::stats {

double OlsResult::predict(const std::vector<double>& features) const {
  const std::size_t offset = has_intercept ? 1 : 0;
  ensure(features.size() + offset == coefficients.size(),
         "OlsResult::predict: feature count mismatch");
  double y = has_intercept ? coefficients[0] : 0.0;
  for (std::size_t i = 0; i < features.size(); ++i)
    y += coefficients[i + offset] * features[i];
  return y;
}

OlsResult ols_fit(const Matrix& x, const std::vector<double>& y,
                  bool intercept) {
  ensure(x.rows() == y.size(), "ols_fit: sample count mismatch");
  ensure(x.rows() > 0, "ols_fit: empty design");
  const std::size_t n = x.rows();
  const std::size_t p = x.cols() + (intercept ? 1 : 0);
  ensure(n >= p, "ols_fit: more parameters than samples");

  // Design with intercept column.
  Matrix design(n, p);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t c = 0;
    if (intercept) design(i, c++) = 1.0;
    for (std::size_t j = 0; j < x.cols(); ++j) design(i, c++) = x(i, j);
  }

  const Matrix xt = design.transpose();
  const Matrix xtx = xt * design;
  std::vector<double> xty(p, 0.0);
  for (std::size_t j = 0; j < p; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += design(i, j) * y[i];
    xty[j] = acc;
  }

  OlsResult result;
  result.has_intercept = intercept;
  result.coefficients = solve_spd(xtx, xty);

  result.residuals.resize(n);
  double ss_res = 0.0;
  const double y_mean = mean(y);
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double pred = 0.0;
    for (std::size_t j = 0; j < p; ++j)
      pred += design(i, j) * result.coefficients[j];
    result.residuals[i] = y[i] - pred;
    ss_res += result.residuals[i] * result.residuals[i];
    ss_tot += (y[i] - y_mean) * (y[i] - y_mean);
  }
  result.mse = ss_res / static_cast<double>(n);
  result.r_squared = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 0.0;
  const double dof = static_cast<double>(n) - static_cast<double>(p);
  result.adjusted_r_squared =
      dof > 0 ? 1.0 - (1.0 - result.r_squared) *
                          (static_cast<double>(n) - (intercept ? 1.0 : 0.0)) /
                          dof
              : result.r_squared;
  return result;
}

double vif(const Matrix& x, std::size_t j) {
  ensure(j < x.cols(), "vif: feature index out of range");
  ensure(x.cols() >= 2, "vif: need at least two features");
  Matrix others(x.rows(), x.cols() - 1);
  std::vector<double> target(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    std::size_t c = 0;
    for (std::size_t k = 0; k < x.cols(); ++k) {
      if (k == j) {
        target[i] = x(i, k);
      } else {
        others(i, c++) = x(i, k);
      }
    }
  }
  const OlsResult fit = ols_fit(others, target, /*intercept=*/true);
  const double r2 = std::clamp(fit.r_squared, 0.0, 1.0 - 1e-12);
  return 1.0 / (1.0 - r2);
}

std::vector<double> vif_all(const Matrix& x) {
  std::vector<double> out(x.cols());
  for (std::size_t j = 0; j < x.cols(); ++j) out[j] = vif(x, j);
  return out;
}

}  // namespace ecotune::stats
