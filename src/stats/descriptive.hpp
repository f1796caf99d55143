#pragma once

#include <span>
#include <vector>

namespace ecotune::stats {

/// Arithmetic mean; 0 for empty input.
[[nodiscard]] double mean(std::span<const double> xs);

/// Population standard deviation (n denominator), as used by the paper's
/// feature standardization ("removing the mean and scaling to unit
/// variance").
[[nodiscard]] double stddev_population(std::span<const double> xs);

}  // namespace ecotune::stats
