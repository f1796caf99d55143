#include "ptf/search_space.hpp"

#include <limits>

#include "common/error.hpp"

namespace ecotune::ptf {

void SearchSpace::add_parameter(TuningParameter p) {
  ensure(!p.values.empty(), "SearchSpace: parameter without values");
  params_.push_back(std::move(p));
}

std::uint64_t SearchSpace::size() const {
  if (params_.empty()) return 0;
  std::uint64_t n = 1;
  for (const auto& p : params_) {
    const auto m = static_cast<std::uint64_t>(p.values.size());
    ensure(n <= std::numeric_limits<std::uint64_t>::max() / m,
           "SearchSpace::size: cartesian product overflows 64 bits");
    n *= m;
  }
  return n;
}

std::vector<Scenario> SearchSpace::exhaustive() const {
  std::vector<Scenario> out;
  if (params_.empty()) return out;
  const std::uint64_t n = size();
  ensure(n <= std::numeric_limits<std::size_t>::max() / sizeof(Scenario),
         "SearchSpace::exhaustive: space too large to materialize");
  out.reserve(static_cast<std::size_t>(n));
  std::vector<std::size_t> odometer(params_.size(), 0);
  for (std::uint64_t id = 0; id < n; ++id) {
    Scenario s;
    s.id = static_cast<std::int64_t>(id);
    for (std::size_t i = 0; i < params_.size(); ++i)
      s.values[params_[i].name] = params_[i].values[odometer[i]];
    out.push_back(std::move(s));
    // Odometer increment, parameter 0 fastest.
    for (std::size_t i = 0; i < odometer.size(); ++i) {
      if (++odometer[i] < params_[i].values.size()) break;
      odometer[i] = 0;
    }
  }
  return out;
}

}  // namespace ecotune::ptf
