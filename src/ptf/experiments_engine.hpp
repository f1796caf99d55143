#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "instr/filter.hpp"
#include "instr/scorep_runtime.hpp"
#include "ptf/objectives.hpp"
#include "ptf/tuning_parameter.hpp"
#include "workload/benchmark.hpp"

namespace ecotune::store {
class MeasurementStore;
}

namespace ecotune::ptf {

/// What the engine measured for one scenario: the phase-region aggregate
/// plus per-region aggregates (regions are measured in the same experiment,
/// which is how the plugin tunes all significant regions "in a single
/// application run", paper Sec. V-C).
struct ScenarioResult {
  Scenario scenario;
  SystemConfig config;
  Measurement phase;
  std::map<std::string, Measurement> regions;
};

/// Engine knobs.
struct EngineOptions {
  /// Phase iterations evaluated per scenario (>=1; averaging reduces noise).
  int iterations_per_scenario = 1;
  /// Relative noise of per-region energy measurements (HDEEM metric-plugin
  /// readings at region granularity).
  double measurement_noise = 0.004;
  std::uint64_t seed = 0xE61E5EEDULL;
  /// Concurrent application runs (chunks) during scenario execution; each
  /// run executes on its own NodeSimulator clone. 1 = serial, 0 = hardware
  /// concurrency. Results are identical for any value.
  int jobs = 1;
  /// Optional persistent measurement store (not owned). When set and
  /// enabled, each application run (chunk) is answered from the store when
  /// its key -- benchmark, schedule, options, seed, and node-state
  /// fingerprint -- was measured before; values replayed from the store are
  /// bit-exact, so warm results are identical to simulated ones. The job
  /// count is deliberately NOT part of the key: entries written at one
  /// --jobs value answer runs at any other.
  store::MeasurementStore* store = nullptr;
  /// Disambiguates store task keys between engine *instances* that would
  /// otherwise count their run() calls from zero independently (the PTF
  /// frontend builds one engine per tuning step). Cache-key-only: noise
  /// keys are unaffected, so measured values do not depend on it.
  std::string key_scope;
};

/// Listener that assigns one scenario per phase iteration: switches the
/// configuration at phase enter and buckets region/phase measurements by the
/// active scenario. Iterations outside the schedule deactivate measurement
/// (they belong to no scenario). Exposed for direct testing; the engine is
/// the intended user.
class ScenarioScheduler final : public instr::RegionListener {
 public:
  using Schedule = std::vector<std::pair<std::int64_t, SystemConfig>>;

  ScenarioScheduler(instr::ExecutionContext& ctx, const Schedule& schedule,
                    std::map<std::int64_t, ScenarioResult>& buckets, Rng& rng,
                    double noise)
      : ctx_(ctx),
        schedule_(schedule),
        buckets_(buckets),
        rng_(rng),
        noise_(noise) {}

  void on_enter(const instr::RegionEnter& e) override;
  void on_exit(const instr::RegionExit& e) override;

 private:
  instr::ExecutionContext& ctx_;
  const Schedule& schedule_;
  std::map<std::int64_t, ScenarioResult>& buckets_;
  Rng& rng_;
  double noise_;
  std::int64_t active_ = -1;
};

/// PTF experiments engine: executes scenarios on the instrumented
/// application, assigning one scenario per phase iteration so a single
/// application run evaluates many scenarios (the progressive-phase-loop
/// exploitation of paper Sec. V-C). Configurations are switched at phase
/// boundaries through the Parameter Control Plugins.
///
/// With jobs > 1 the independent application runs execute concurrently on
/// per-run node clones; each run's jitter/measurement noise is keyed by its
/// chunk index (not by worker), and measurements are merged in schedule
/// order, so results are bitwise-identical for any job count.
class ExperimentsEngine {
 public:
  /// The application is stored by value, so temporaries are safe to pass.
  ExperimentsEngine(hwsim::NodeSimulator& node, workload::Benchmark app,
                    instr::InstrumentationFilter filter,
                    EngineOptions options = {});

  /// Runs all scenarios; unspecified parameters default to `base`.
  [[nodiscard]] std::vector<ScenarioResult> run(
      const std::vector<Scenario>& scenarios, const SystemConfig& base);

  /// Application runs performed so far (one run covers up to
  /// phase_iterations scenarios).
  [[nodiscard]] long app_runs() const { return app_runs_; }

  /// Picks the best scenario for the phase region under `objective`.
  [[nodiscard]] static const ScenarioResult& best_phase(
      const std::vector<ScenarioResult>& results,
      const TuningObjective& objective);

  /// Picks the best scenario per region under `objective`.
  [[nodiscard]] static std::map<std::string, const ScenarioResult*>
  best_per_region(const std::vector<ScenarioResult>& results,
                  const TuningObjective& objective);

 private:
  hwsim::NodeSimulator& node_;
  workload::Benchmark app_;
  instr::InstrumentationFilter filter_;
  EngineOptions options_;
  Rng rng_;
  long run_calls_ = 0;  ///< disambiguates chunk noise keys across run()s
  long app_runs_ = 0;
};

}  // namespace ecotune::ptf
