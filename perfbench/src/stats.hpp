#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least `pct`
/// percent of the samples are at or below it, i.e. sorted[ceil(pct/100*n)-1].
/// `pct` is an integer in [1, 100]; `samples` must be non-empty.
[[nodiscard]] double nearest_rank(std::vector<double> samples, int pct);

/// The tail percentile a sample count supports: the highest of 99, 90, 75
/// that leaves at least ten samples beyond its rank, else 50.
[[nodiscard]] int supported_tail_pct(std::size_t n);

/// Nearest-rank median (p50).
[[nodiscard]] inline double median(std::vector<double> samples) {
  return nearest_rank(std::move(samples), 50);
}

/// Nearest-rank `pct` of `samples`, the op_tail_ms of a workload. Says on
/// stderr when the sample count does not support `pct` by the rule above.
[[nodiscard]] double tail_ms(const std::vector<double>& samples, int pct);

/// The fixed tail percentiles: a campaign window of 10 s holds about 40
/// iterations (p75 leaves ten beyond), a serve_mix window tens of
/// thousands of requests.
inline constexpr int kCampaignTailPct = 75;
inline constexpr int kServeTailPct = 99;

[[nodiscard]] double mean(const std::vector<double>& samples);

}  // namespace perfbench
