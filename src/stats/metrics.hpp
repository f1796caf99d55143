#pragma once

#include <span>

namespace ecotune::stats {

/// Mean absolute percentage error, in percent (the paper's Fig. 5 metric).
[[nodiscard]] double mape(std::span<const double> y_true,
                          std::span<const double> y_pred);

}  // namespace ecotune::stats
