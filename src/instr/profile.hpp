#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "instr/region_events.hpp"

namespace ecotune::instr {

/// Aggregated statistics for one region across an application run (one node
/// of the CUBE4-like call-tree profile).
struct RegionStats {
  std::string name;
  RegionType type = RegionType::kFunction;
  long count = 0;
  Seconds total_time{0};
  Joules total_node_energy{0};
  Seconds min_time{0};
  Seconds max_time{0};

  [[nodiscard]] Seconds mean_time() const {
    return count > 0 ? total_time / static_cast<double>(count) : Seconds(0);
  }
  /// Coefficient of variation proxy used by dynamism analysis.
  [[nodiscard]] double time_spread() const {
    const double mean = mean_time().value();
    return mean > 0 ? (max_time.value() - min_time.value()) / mean : 0.0;
  }
};

/// Call-tree application profile (CUBE4 analogue): root -> phase -> regions.
/// Built by profiling runs and consumed by scorep-autofilter and
/// readex-dyn-detect.
class CallTreeProfile final : public RegionListener {
 public:
  /// Records one region execution.
  void add_sample(const RegionExit& e);

  // RegionListener: profile runs simply subscribe to the runtime.
  void on_exit(const RegionExit& e) override { add_sample(e); }

  /// All regions, insertion-ordered (phase region included).
  [[nodiscard]] std::vector<RegionStats> all() const;

  /// Total wall time attributed to the phase region.
  [[nodiscard]] Seconds phase_time() const;
  /// Number of phase iterations observed.
  [[nodiscard]] long phase_count() const;

 private:
  std::map<std::string, RegionStats> stats_;
  std::vector<std::string> order_;
};

}  // namespace ecotune::instr
