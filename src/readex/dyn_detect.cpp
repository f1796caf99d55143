#include "readex/dyn_detect.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ecotune::readex {

bool DynDetectReport::is_significant(const std::string& region) const {
  return std::any_of(significant.begin(), significant.end(),
                     [&](const SignificantRegion& s) {
                       return s.name == region;
                     });
}

DynDetectReport readex_dyn_detect(const instr::CallTreeProfile& profile,
                                  Seconds threshold) {
  DynDetectReport report;
  report.threshold = threshold;
  const long phases = profile.phase_count();
  ensure(phases > 0, "readex_dyn_detect: profile has no phase region");
  report.phase_mean_time =
      profile.phase_time() / static_cast<double>(phases);

  double weight_sum_sq = 0.0;
  double weight_sum = 0.0;
  for (const auto& s : profile.all()) {
    if (s.type == instr::RegionType::kPhase) continue;
    if (s.mean_time() >= threshold) {
      SignificantRegion sig;
      sig.name = s.name;
      sig.mean_time = s.mean_time();
      sig.count = s.count;
      sig.weight = report.phase_mean_time.value() > 0
                       ? s.total_time.value() /
                             profile.phase_time().value()
                       : 0.0;
      sig.variation = s.time_spread();
      weight_sum += sig.weight;
      weight_sum_sq += sig.weight * sig.weight;
      report.significant.push_back(std::move(sig));
    } else {
      report.insignificant.push_back(s.name);
    }
  }
  // Inter-region dynamism: 0 when one region dominates, approaching 1 when
  // phase time is spread over many regions (normalized inverse Herfindahl).
  if (weight_sum > 0 && report.significant.size() > 1) {
    const double herfindahl =
        weight_sum_sq / (weight_sum * weight_sum);
    const double n = static_cast<double>(report.significant.size());
    report.inter_region_dynamism =
        (1.0 - herfindahl) / (1.0 - 1.0 / n);
  }
  return report;
}

}  // namespace ecotune::readex
