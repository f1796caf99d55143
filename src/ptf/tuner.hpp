#pragma once

#include <map>
#include <string>
#include <string_view>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/units.hpp"
#include "ptf/objectives.hpp"
#include "workload/benchmark.hpp"

namespace ecotune {

/// One tuning task handed to a strategy: the application to tune and the
/// objective to minimize (a name resolvable by ptf::make_objective, so the
/// power-cap family's parameterized spellings -- "power_cap:250" -- work
/// everywhere a request is built).
struct TuningRequest {
  workload::Benchmark app;
  std::string objective = "energy";
};

/// What every strategy reports back, regardless of how it searched: the
/// chosen configuration(s), how many scenarios it evaluated, and what the
/// search cost in application runs and simulated wall time. Strategy-rich
/// details (Q tables, full evaluation lists, tuning models) stay on the
/// concrete tuner types; this is the common denominator the comparison
/// drivers render side by side.
struct TuningOutcome {
  std::string tuner;      ///< strategy name (registry key)
  std::string objective;  ///< objective the request was scored under
  SystemConfig best;      ///< application/phase-level winner
  /// Per-region winners; empty for strategies that only tune app-level.
  std::map<std::string, SystemConfig> region_best;
  long scenarios_evaluated = 0;  ///< configurations (or episodes) scored
  long app_runs = 0;             ///< simulated application runs consumed
  Seconds tuning_time{0};        ///< simulated wall time of the search
  /// Measurement of the winning configuration, when the strategy measured
  /// it directly (count == 0 when it did not).
  ptf::Measurement best_measurement;

  [[nodiscard]] Json to_json() const;
  /// Reads the document to_json() wrote, keys in sorted order, straight
  /// from its compact bytes; re-encoding the result gives those bytes.
  [[nodiscard]] static TuningOutcome from_json(std::string_view text);
};

/// The common seam every tuning strategy sits behind (paper Table VI /
/// Sec. V): exhaustive and static baselines, the model-based DTA plugin,
/// the online Q-learning tuner, and the cpufreq-governor baselines all
/// implement this, so the comparison drivers can iterate a registry of
/// strategies instead of hand-wiring one stack per approach.
class Tuner {
 public:
  virtual ~Tuner() = default;

  /// Stable strategy name (the TunerRegistry key, e.g. "qlearn").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Runs the strategy's full search for `request` and reports the common
  /// outcome. Implementations draw all randomness from task-keyed Rng
  /// forks, so outcomes are bitwise reproducible and jobs-invariant.
  [[nodiscard]] virtual TuningOutcome tune(const TuningRequest& request) = 0;
};

}  // namespace ecotune
