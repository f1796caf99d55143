#pragma once

#include <vector>

#include "common/json.hpp"
#include "stats/linalg.hpp"

namespace ecotune::stats {

/// Standardizes features by removing the mean and scaling to unit variance
/// (paper Sec. IV-C). Mean/scale are learned from the training set only.
class StandardScaler {
 public:
  /// Learns per-column mean and population stddev from `x`.
  void fit(const Matrix& x);

  [[nodiscard]] bool fitted() const { return !mean_.empty(); }

  /// Standardizes a copy of the whole matrix.
  [[nodiscard]] Matrix transform(const Matrix& x) const;
  /// Standardizes `x` into `out`, reusing out's storage when the shape
  /// already matches (the batched-prediction hot path). Elementwise
  /// identical to transform().
  void transform_into(const Matrix& x, Matrix& out) const;

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static StandardScaler from_json(const Json& j);

 private:
  std::vector<double> mean_;
  std::vector<double> scale_;
};

}  // namespace ecotune::stats
