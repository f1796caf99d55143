#include "stats/metrics.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ecotune::stats {

double mape(std::span<const double> y_true, std::span<const double> y_pred) {
  ensure(y_true.size() == y_pred.size() && !y_true.empty(),
         "mape: bad input sizes");
  double acc = 0.0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    ensure(std::fabs(y_true[i]) > 1e-300, "mape: zero ground-truth value");
    acc += std::fabs((y_true[i] - y_pred[i]) / y_true[i]);
  }
  return 100.0 * acc / static_cast<double>(y_true.size());
}

}  // namespace ecotune::stats
