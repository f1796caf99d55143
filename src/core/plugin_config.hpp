#pragma once

#include <string>

#include "common/json.hpp"
#include "common/units.hpp"

namespace ecotune::core {

/// Configuration of the DVFS/UFS tuning plugin, normally produced by the
/// pre-processing step (readex-dyn-detect writes significant regions and the
/// OpenMP thread range into a configuration file, paper Sec. III-A/B).
struct PluginConfig {
  /// Name of the manually annotated phase region.
  std::string phase_region = "PHASE";
  /// Significant-region threshold (100 ms: energy measurement delay and
  /// frequency-switching latency must be negligible, paper Sec. III-A).
  Seconds significance_threshold{0.1};
  /// scorep-autofilter granularity: finer regions lose instrumentation.
  Seconds autofilter_granularity{1e-3};
  /// OpenMP thread search: lower bound and step (upper bound = core count).
  int omp_lower = 12;
  int omp_step = 4;
  /// Radius (in grid steps) of the reduced frequency search space around the
  /// model's recommendation (paper uses the immediate neighbors: radius 1,
  /// giving the 3x3 = 9 verification scenarios).
  int neighborhood_radius = 1;
  /// Tuning objective name ("energy", "cpu_energy", "edp", "ed2p", "tco").
  std::string objective = "energy";
  /// Per-region model-based prediction (the paper's Sec. VI outlook):
  /// collect counters and predict frequencies for every significant region
  /// individually instead of once for the phase region. Regions with very
  /// different best configurations (e.g. I/O-like regions) become reachable
  /// at the cost of extra analysis runs and a larger verification space.
  bool per_region_prediction = false;

  [[nodiscard]] Json to_json() const;
};

}  // namespace ecotune::core
