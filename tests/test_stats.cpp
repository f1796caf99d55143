#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>

#include "common/error.hpp"
#include "stats/crossval.hpp"
#include "stats/descriptive.hpp"
#include "stats/feature_selection.hpp"
#include "stats/linalg.hpp"
#include "stats/metrics.hpp"
#include "stats/regression.hpp"
#include "stats/scaler.hpp"

namespace ecotune::stats {
namespace {

/// A matrix from rows of equal length.
Matrix mat(std::initializer_list<std::initializer_list<double>> rows) {
  Matrix m(rows.size(), rows.begin()->size());
  std::size_t r = 0;
  for (const auto& row : rows) {
    std::size_t c = 0;
    for (double v : row) m(r, c++) = v;
    ++r;
  }
  return m;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.0);  // zero-initialized
  m(1, 1) = 5.0;
  m(0, 0) = 9.0;
  EXPECT_DOUBLE_EQ(m.row_span(0)[0], 9.0);
  EXPECT_EQ(m.row_span(1).size(), 3u);
  EXPECT_DOUBLE_EQ(m.col(1)[1], 5.0);
  EXPECT_THROW((void)m.row_span(2), PreconditionError);
}

TEST(Matrix, MultiplyAndTranspose) {
  const Matrix a = mat({{1, 2}, {3, 4}});
  const Matrix b = mat({{5, 6}, {7, 8}});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
  const Matrix at = a.transpose();
  EXPECT_DOUBLE_EQ(at(0, 1), 3.0);
}

TEST(SolveSpd, SolvesWellConditionedSystem) {
  const Matrix a = mat({{4, 1}, {1, 3}});

  const auto x = solve_spd(a, {1.0, 2.0});
  EXPECT_NEAR(4 * x[0] + 1 * x[1], 1.0, 1e-12);
  EXPECT_NEAR(1 * x[0] + 3 * x[1], 2.0, 1e-12);
}

TEST(SolveSpd, RidgeFallbackHandlesSingularMatrix) {
  const Matrix a = mat({{1, 1}, {1, 1}});  // rank 1

  const auto x = solve_spd(a, {2.0, 2.0});
  // Ridge regularization yields the minimum-norm-ish solution; residual
  // should still be small.
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-3);
}

TEST(Descriptive, BasicStatistics) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(stddev_population(xs), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(stddev_population(std::vector<double>{}), 0.0);
}

TEST(Ols, RecoversLinearCoefficients) {
  // y = 3 + 2*x1 - 0.5*x2, exactly.
  Matrix x(50, 2);
  std::vector<double> y(50);
  Rng rng(5);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.uniform(-5, 5);
    x(i, 1) = rng.uniform(0, 10);
    y[i] = 3.0 + 2.0 * x(i, 0) - 0.5 * x(i, 1);
  }
  const auto fit = ols_fit(x, y);
  EXPECT_NEAR(fit.coefficients[0], 3.0, 1e-9);
  EXPECT_NEAR(fit.coefficients[1], 2.0, 1e-9);
  EXPECT_NEAR(fit.coefficients[2], -0.5, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit.predict({1.0, 2.0}), 4.0, 1e-9);
}

TEST(Ols, RSquaredDropsWithNoise) {
  Matrix x(200, 1);
  std::vector<double> y(200);
  Rng rng(6);
  for (std::size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.uniform(0, 1);
    y[i] = x(i, 0) + rng.normal(0.0, 0.5);
  }
  const auto fit = ols_fit(x, y);
  EXPECT_GT(fit.r_squared, 0.1);
  EXPECT_LT(fit.r_squared, 0.9);
  EXPECT_LE(fit.adjusted_r_squared, fit.r_squared);
}

TEST(Ols, ValidatesInput) {
  Matrix x(3, 5);
  EXPECT_THROW(ols_fit(x, {1, 2, 3}), PreconditionError);  // p > n
  EXPECT_THROW(ols_fit(x, {1, 2}), PreconditionError);     // size mismatch
}

TEST(Vif, DetectsCollinearity) {
  Rng rng(7);
  Matrix x(100, 3);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = rng.uniform(0, 1);
    x(i, 1) = rng.uniform(0, 1);
    x(i, 2) = 2.0 * x(i, 0) + rng.normal(0.0, 0.01);  // nearly collinear
  }
  const auto vifs = vif_all(x);
  EXPECT_GT(vifs[0], 10.0);
  EXPECT_LT(vifs[1], 2.0);
  EXPECT_GT(vifs[2], 10.0);
  EXPECT_GT(mean(vifs), 5.0);
}

TEST(Vif, IndependentFeaturesHaveLowVif) {
  Rng rng(8);
  Matrix x(200, 4);
  for (std::size_t i = 0; i < 200; ++i)
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = rng.normal(0, 1);
  EXPECT_LT(mean(vif_all(x)), 1.2);
}

TEST(FeatureSelection, PicksInformativeFeaturesAndRespectsVifGuard) {
  Rng rng(9);
  const std::size_t n = 300;
  Matrix x(n, 6);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = rng.normal(0, 1);
    x(i, 4) = x(i, 0) + rng.normal(0.0, 0.01);  // collinear duplicate of 0
    x(i, 5) = rng.normal(0, 1);                 // pure noise
    y[i] = 2.0 * x(i, 0) - 1.0 * x(i, 1) + 0.5 * x(i, 2) +
           rng.normal(0.0, 0.05);
  }
  SelectionOptions opts;
  opts.max_features = 4;
  const auto result = select_features(x, y, opts);
  // The three informative features are selected (0 may be replaced by its
  // collinear twin 4, but never both).
  const auto& sel = result.selected;
  const bool has0 =
      std::find(sel.begin(), sel.end(), 0u) != sel.end();
  const bool has4 =
      std::find(sel.begin(), sel.end(), 4u) != sel.end();
  EXPECT_TRUE(has0 || has4);
  EXPECT_FALSE(has0 && has4);  // VIF guard forbids the collinear pair
  EXPECT_NE(std::find(sel.begin(), sel.end(), 1u), sel.end());
  EXPECT_NE(std::find(sel.begin(), sel.end(), 2u), sel.end());
  EXPECT_GT(result.adjusted_r_squared, 0.95);
  EXPECT_LT(result.mean_vif, 10.0);
}

TEST(FeatureSelection, IgnoresConstantColumns) {
  Rng rng(10);
  Matrix x(100, 3);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = 7.0;  // constant
    x(i, 1) = rng.normal(0, 1);
    x(i, 2) = rng.normal(0, 1);
    y[i] = x(i, 1);
  }
  const auto result = select_features(x, y);
  for (auto j : result.selected) EXPECT_NE(j, 0u);
}

TEST(Scaler, StandardizesToZeroMeanUnitVariance) {
  Rng rng(11);
  Matrix x(500, 2);
  for (std::size_t i = 0; i < 500; ++i) {
    x(i, 0) = rng.normal(10.0, 3.0);
    x(i, 1) = rng.normal(-5.0, 0.5);
  }
  StandardScaler scaler;
  scaler.fit(x);
  const Matrix t = scaler.transform(x);
  for (std::size_t j = 0; j < 2; ++j) {
    const auto col = t.col(j);
    EXPECT_NEAR(mean(col), 0.0, 1e-10);
    EXPECT_NEAR(stddev_population(col), 1.0, 1e-10);
  }
}

TEST(Scaler, JsonRoundTrip) {
  const Matrix x = mat({{1, 2}, {3, 4}});

  StandardScaler scaler;
  scaler.fit(x);
  const auto restored = StandardScaler::from_json(
      Json::parse(scaler.to_json().dump()));
  EXPECT_EQ(restored.mean(), scaler.mean());
  EXPECT_EQ(restored.scale(), scaler.scale());
}

TEST(Scaler, ConstantFeatureDoesNotDivideByZero) {
  const Matrix x = mat({{5, 1}, {5, 2}, {5, 3}});
  StandardScaler scaler;
  scaler.fit(x);
  const Matrix t = scaler.transform(mat({{5.0, 2.0}}));
  EXPECT_DOUBLE_EQ(t(0, 0), 0.0);
  EXPECT_TRUE(std::isfinite(t(0, 1)));
}

TEST(CrossVal, KfoldPartitionsAllSamples) {
  Rng rng(12);
  const auto splits = kfold(100, 10, rng);
  ASSERT_EQ(splits.size(), 10u);
  std::vector<int> seen(100, 0);
  for (const auto& s : splits) {
    EXPECT_EQ(s.train.size() + s.test.size(), 100u);
    for (auto i : s.test) ++seen[i];
  }
  for (int c : seen) EXPECT_EQ(c, 1);  // each sample tested exactly once
}

TEST(CrossVal, KfoldValidates) {
  Rng rng(13);
  EXPECT_THROW(kfold(5, 1, rng), PreconditionError);
  EXPECT_THROW(kfold(5, 6, rng), PreconditionError);
}

TEST(CrossVal, LeaveOneGroupOut) {
  const std::vector<std::string> groups{"a", "a", "b", "c", "b", "a"};
  const auto splits = leave_one_group_out(groups);
  ASSERT_EQ(splits.size(), 3u);  // a, b, c
  EXPECT_EQ(splits[0].test, (std::vector<std::size_t>{0, 1, 5}));
  EXPECT_EQ(splits[1].test, (std::vector<std::size_t>{2, 4}));
  EXPECT_EQ(splits[2].test, (std::vector<std::size_t>{3}));
  for (const auto& s : splits)
    EXPECT_EQ(s.train.size() + s.test.size(), groups.size());
  EXPECT_EQ(distinct_groups(groups),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Metrics, ErrorMeasures) {
  const std::vector<double> t{1.0, 2.0, 4.0};
  const std::vector<double> p{1.1, 1.8, 4.0};
  EXPECT_NEAR(mape(t, p), 100.0 * (0.1 + 0.1 + 0.0) / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(mape(t, t), 0.0);
  const std::vector<double> zero{0.0};
  const std::vector<double> one{1.0};
  const std::vector<double> two{1.0, 2.0};
  EXPECT_THROW((void)mape(zero, one), PreconditionError);
  EXPECT_THROW((void)mape(one, two), PreconditionError);
}

}  // namespace
}  // namespace ecotune::stats
