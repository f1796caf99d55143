#include "stats/descriptive.hpp"

#include <cmath>

namespace ecotune::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev_population(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size()));
}

}  // namespace ecotune::stats
