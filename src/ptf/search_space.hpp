#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ptf/tuning_parameter.hpp"

namespace ecotune::ptf {

class SearchSpace;

/// Lazy odometer over a SearchSpace's cartesian product: yields the same
/// scenarios as SearchSpace::exhaustive(), in the same order and with the
/// same ids, without materializing the product, so spaces too large to
/// hold in memory can still be swept. Today's plugin spaces are small
/// enough that consumers still pass materialized vectors around.
class ScenarioCursor {
 public:
  explicit ScenarioCursor(const SearchSpace& space);

  /// Scenarios remaining (== space size for a fresh cursor).
  [[nodiscard]] std::uint64_t remaining() const { return remaining_; }

  /// Yields the next scenario, or nullopt when the space is exhausted.
  [[nodiscard]] std::optional<Scenario> next();

 private:
  const SearchSpace& space_;
  std::vector<std::size_t> odometer_;
  std::int64_t id_ = 0;
  std::uint64_t remaining_ = 0;
};

/// Cartesian search space over tuning parameters, with the exhaustive and
/// reduced (neighborhood) enumeration strategies the plugin uses.
class SearchSpace {
 public:
  void add_parameter(TuningParameter p);
  [[nodiscard]] const std::vector<TuningParameter>& parameters() const {
    return params_;
  }

  /// Number of scenarios in the full cartesian product. Throws instead of
  /// silently wrapping when the product overflows 64 bits.
  [[nodiscard]] std::uint64_t size() const;

  /// Enumerates every combination (ids are assigned 0..size-1). Prefer
  /// cursor()/for_each_scenario for large spaces: this materializes the
  /// whole product.
  [[nodiscard]] std::vector<Scenario> exhaustive() const;

  /// Lazy enumerator over the same sequence as exhaustive().
  [[nodiscard]] ScenarioCursor cursor() const { return ScenarioCursor(*this); }

  /// Applies fn to every scenario lazily, in enumeration order.
  template <typename Fn>
  void for_each_scenario(Fn&& fn) const {
    ScenarioCursor c = cursor();
    while (auto s = c.next()) fn(*s);
  }

 private:
  std::vector<TuningParameter> params_;
};

}  // namespace ecotune::ptf
