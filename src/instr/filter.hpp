#pragma once

#include <set>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "instr/profile.hpp"

namespace ecotune::instr {

/// Which regions carry measurement probes. Score-P compiler instrumentation
/// starts with everything instrumented; filtering (runtime + compile-time)
/// then suppresses fine-granular regions to bound overhead (paper
/// Sec. III-A).
class InstrumentationFilter {
 public:
  /// Everything instrumented (fresh compiler instrumentation).
  [[nodiscard]] static InstrumentationFilter instrument_all() {
    return InstrumentationFilter{};
  }

  /// Nothing instrumented (uninstrumented reference binary).
  [[nodiscard]] static InstrumentationFilter instrument_none() {
    InstrumentationFilter f;
    f.exclude_all_ = true;
    return f;
  }

  /// Marks one region as excluded from instrumentation.
  void exclude(std::string region) { excluded_.insert(std::move(region)); }

  [[nodiscard]] bool is_instrumented(const std::string& region) const {
    if (exclude_all_) return false;
    return !excluded_.contains(region);
  }

  /// Serializes in Score-P filter-file syntax.
  [[nodiscard]] std::string to_filter_file() const;
  /// Parses a filter file produced by to_filter_file().
  [[nodiscard]] static InstrumentationFilter from_filter_file(
      const std::string& text);

 private:
  std::set<std::string> excluded_;
  bool exclude_all_ = false;
};

/// Result of the scorep-autofilter pass.
struct AutoFilterResult {
  InstrumentationFilter filter;
  std::vector<std::string> excluded;  ///< regions below the threshold
};

/// The READEX scorep-autofilter tool: excludes compiler-instrumented regions
/// whose mean duration falls below `granularity` (probe cost would dominate),
/// keeping phase and user regions.
[[nodiscard]] AutoFilterResult scorep_autofilter(const CallTreeProfile& profile,
                                                 Seconds granularity);

}  // namespace ecotune::instr
