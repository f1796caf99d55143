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

ScenarioCursor::ScenarioCursor(const SearchSpace& space)
    : space_(space),
      odometer_(space.parameters().size(), 0),
      remaining_(space.size()) {}

std::optional<Scenario> ScenarioCursor::next() {
  if (remaining_ == 0) return std::nullopt;
  const auto& params = space_.parameters();
  Scenario s;
  s.id = id_++;
  for (std::size_t i = 0; i < params.size(); ++i)
    s.values[params[i].name] = params[i].values[odometer_[i]];
  --remaining_;
  // Odometer increment, parameter 0 fastest (matches exhaustive()).
  for (std::size_t i = 0; i < odometer_.size(); ++i) {
    if (++odometer_[i] < params[i].values.size()) break;
    odometer_[i] = 0;
  }
  return s;
}

std::vector<Scenario> SearchSpace::exhaustive() const {
  std::vector<Scenario> out;
  if (params_.empty()) return out;
  const std::uint64_t n = size();
  ensure(n <= std::numeric_limits<std::size_t>::max() / sizeof(Scenario),
         "SearchSpace::exhaustive: space too large to materialize; "
         "use cursor()/for_each_scenario");
  out.reserve(static_cast<std::size_t>(n));
  for_each_scenario([&](Scenario s) { out.push_back(std::move(s)); });
  return out;
}

}  // namespace ecotune::ptf
