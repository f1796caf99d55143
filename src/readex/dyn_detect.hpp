#pragma once

#include <string>
#include <vector>

#include "common/units.hpp"
#include "instr/profile.hpp"

namespace ecotune::readex {

/// One region that qualified as significant (mean execution time above the
/// threshold, paper Sec. III-A).
struct SignificantRegion {
  std::string name;
  Seconds mean_time{0};
  long count = 0;
  /// Share of phase time spent in this region.
  double weight = 0.0;
  /// Intra-phase execution-time variation (max-min over mean).
  double variation = 0.0;
};

/// Output of readex-dyn-detect: the significant regions plus dynamism
/// metrics, convertible into the tuning plugin's configuration file.
struct DynDetectReport {
  std::vector<SignificantRegion> significant;
  std::vector<std::string> insignificant;
  Seconds threshold{0.1};
  Seconds phase_mean_time{0};
  /// Inter-region dynamism: spread of per-region compute weights; high
  /// values indicate region-level tuning potential.
  double inter_region_dynamism = 0.0;

  [[nodiscard]] bool is_significant(const std::string& region) const;
};

/// The readex-dyn-detect tool: classifies profiled regions by the 100 ms
/// significance threshold chosen so that HDEEM's measurement delay and the
/// DVFS/UFS switching latencies stay negligible (paper Sec. III-A).
[[nodiscard]] DynDetectReport readex_dyn_detect(
    const instr::CallTreeProfile& profile, Seconds threshold = Seconds(0.1));

}  // namespace ecotune::readex
