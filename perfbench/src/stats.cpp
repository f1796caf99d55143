#include "stats.hpp"

#include <algorithm>
#include <iostream>
#include <numeric>
#include <stdexcept>

namespace perfbench {

double nearest_rank(std::vector<double> samples, int pct) {
  if (samples.empty()) throw std::invalid_argument("nearest_rank: no samples");
  if (pct < 1 || pct > 100)
    throw std::invalid_argument("nearest_rank: pct outside [1, 100]");
  const std::size_t n = samples.size();
  // Integer ceil(pct * n / 100): no floating-point rounding at exact ranks.
  const std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

int supported_tail_pct(std::size_t n) {
  for (int pct : {99, 90, 75}) {
    const std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
    if (n >= rank + 10) return pct;
  }
  return 50;
}

double tail_ms(const std::vector<double>& samples, int pct) {
  if (supported_tail_pct(samples.size()) < pct)
    std::cerr << "note: " << samples.size() << " samples support p"
              << supported_tail_pct(samples.size()) << ", reporting p" << pct
              << '\n';
  return nearest_rank(samples, pct);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace perfbench
