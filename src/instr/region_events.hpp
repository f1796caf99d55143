#pragma once

#include <string>

#include "common/config.hpp"
#include "common/units.hpp"
#include "hwsim/counter_model.hpp"

namespace ecotune::instr {

/// Kind of instrumented region, as Score-P classifies them.
enum class RegionType { kFunction, kOmpParallel, kMpi, kPhase, kUser };

/// Payload delivered when an instrumented region is entered. Listeners (RRL,
/// tracers, profilers) may switch the configuration here -- before the
/// region's work executes.
struct RegionEnter {
  std::string_view region;
  RegionType type = RegionType::kFunction;
  int iteration = 0;      ///< phase iteration index
  Seconds timestamp{0};   ///< simulated time at enter
};

/// Payload delivered when an instrumented region exits, carrying the
/// ground-truth measurements of this region execution.
struct RegionExit {
  std::string_view region;
  RegionType type = RegionType::kFunction;
  int iteration = 0;
  Seconds enter_time{0};
  Seconds exit_time{0};
  Joules node_energy{0};     ///< exact node energy of the execution
  Joules cpu_energy{0};      ///< exact CPU energy of the execution
  hwsim::PmuCounts counters{};  ///< exact counters (phase: aggregated)
  SystemConfig config;       ///< configuration the region executed under

  [[nodiscard]] Seconds duration() const { return exit_time - enter_time; }
};

/// Observer of region events (Score-P substrate adapter interface).
class RegionListener {
 public:
  virtual ~RegionListener() = default;
  virtual void on_enter(const RegionEnter&) {}
  virtual void on_exit(const RegionExit&) {}
};

}  // namespace ecotune::instr
