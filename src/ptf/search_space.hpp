#pragma once

#include <cstdint>
#include <vector>

#include "ptf/tuning_parameter.hpp"

namespace ecotune::ptf {

/// Cartesian search space over tuning parameters, with the exhaustive and
/// reduced (neighborhood) enumeration strategies the plugin uses.
class SearchSpace {
 public:
  void add_parameter(TuningParameter p);

  /// Number of scenarios in the full cartesian product. Throws instead of
  /// silently wrapping when the product overflows 64 bits.
  [[nodiscard]] std::uint64_t size() const;

  /// Enumerates every combination, parameter 0 varying fastest (ids are
  /// assigned 0..size-1).
  [[nodiscard]] std::vector<Scenario> exhaustive() const;

 private:
  std::vector<TuningParameter> params_;
};

}  // namespace ecotune::ptf
