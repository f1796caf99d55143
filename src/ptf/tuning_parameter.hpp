#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/frequency.hpp"

namespace ecotune::ptf {

/// A named, integer-valued tuning parameter with its explored values (PTF
/// manages search spaces over such parameters). Frequencies are expressed in
/// MHz, threads as counts.
struct TuningParameter {
  std::string name;
  std::vector<int> values;
};

/// Parameter names used by the DVFS/UFS plugin (match the PCP names).
inline constexpr std::string_view kOmpThreadsParam = "OpenMPTP";
inline constexpr std::string_view kCoreFreqParam = "cpu_freq";
inline constexpr std::string_view kUncoreFreqParam = "uncore_freq";

/// OpenMP thread range parameter: lower..upper with the given step (paper
/// Sec. III-B: lower bound and step size come from the pre-processing
/// configuration file).
[[nodiscard]] TuningParameter omp_threads_parameter(int lower, int upper,
                                                    int step);

/// Core-frequency parameter over (a subset of) the DVFS grid.
[[nodiscard]] TuningParameter core_freq_parameter(
    const std::vector<CoreFreq>& values);

/// Uncore-frequency parameter over (a subset of) the UFS grid.
[[nodiscard]] TuningParameter uncore_freq_parameter(
    const std::vector<UncoreFreq>& values);

/// A scenario: one concrete assignment of values to tuning parameters
/// (paper Sec. III: "the tuning plugin creates scenarios ... which are then
/// executed and evaluated by the experiments engine").
struct Scenario {
  /// 64-bit, like SearchSpace::size().
  std::int64_t id = 0;
  std::map<std::string, int> values;

  [[nodiscard]] bool has(std::string_view param) const {
    return values.count(std::string(param)) > 0;
  }
  [[nodiscard]] int at(std::string_view param) const;
};

/// Converts a scenario to a SystemConfig, taking unspecified parameters
/// from `base`.
[[nodiscard]] SystemConfig scenario_to_config(const Scenario& s,
                                              const SystemConfig& base);

/// Builds a scenario from a SystemConfig (all three parameters set).
[[nodiscard]] Scenario config_to_scenario(std::int64_t id,
                                          const SystemConfig& c);

}  // namespace ecotune::ptf
