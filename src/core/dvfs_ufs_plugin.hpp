#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/plugin_config.hpp"
#include "instr/filter.hpp"
#include "model/energy_model.hpp"
#include "ptf/objectives.hpp"
#include "ptf/tuning_plugin.hpp"
#include "readex/dyn_detect.hpp"
#include "readex/tuning_model.hpp"

namespace ecotune::core {

/// Everything the design-time analysis produced (paper Fig. 1 workflow
/// outputs plus cost accounting for the Sec. V-C tuning-time comparison).
struct DtaResult {
  // Pre-processing.
  instr::AutoFilterResult autofilter;
  readex::DynDetectReport dyn_report;

  // Tuning step 1 (exhaustive OpenMP threads).
  int phase_threads = 24;
  std::map<std::string, int> region_threads;

  // Analysis + tuning step 2 (model-based frequency selection).
  std::map<std::string, double> counter_rates;
  model::FrequencyRecommendation recommendation;
  /// Per-region recommendations (only filled in per-region mode).
  std::map<std::string, model::FrequencyRecommendation> region_recommendations;
  SystemConfig phase_best;
  std::map<std::string, SystemConfig> region_best;

  // Product.
  readex::TuningModel tuning_model;

  // Cost accounting (tuning time, Sec. V-C).
  int thread_scenarios = 0;     ///< k
  int analysis_runs = 0;        ///< counter-collection application runs
  int frequency_scenarios = 0;  ///< neighborhood size (9 for radius 1)
  long app_runs = 0;            ///< total simulated application runs
  Seconds tuning_time{0};       ///< simulated wall time of the whole DTA

  /// Exact JSON round trip (doubles preserved bitwise) so the measurement
  /// store can replay a whole design-time analysis without re-simulating.
  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static DtaResult from_json(const Json& j);
};

/// The paper's contribution: a PTF tuning plugin that tunes OpenMP thread
/// count, core frequency and uncore frequency per significant region, using
/// the neural-network energy model to collapse the frequency search to one
/// prediction plus a 3x3 neighborhood verification (Secs. III and IV).
class DvfsUfsPlugin final : public ptf::TuningPlugin {
 public:
  struct Options {
    PluginConfig config;
    ptf::EngineOptions engine;
  };

  /// `energy_model` must be trained; it is not owned.
  DvfsUfsPlugin(const model::EnergyModel& energy_model, Options options = {});

  // ptf::TuningPlugin:
  [[nodiscard]] std::string_view name() const override {
    return "dvfs_ufs_omp";
  }
  void initialize(ptf::PluginContext& ctx) override;
  [[nodiscard]] instr::InstrumentationFilter instrumentation_filter()
      const override;
  [[nodiscard]] SystemConfig scenario_base() const override;
  [[nodiscard]] bool has_next_tuning_step() const override;
  [[nodiscard]] std::vector<ptf::Scenario> create_scenarios() override;
  void process_results(
      const std::vector<ptf::ScenarioResult>& results) override;
  void finalize() override;

  /// Convenience: run the full DTA on `app`/`node` and return the result.
  DtaResult run_dta(const workload::Benchmark& app,
                    hwsim::NodeSimulator& node);

 private:
  enum class Step { kThreads = 0, kFrequencies = 1, kDone = 2 };

  const model::EnergyModel& energy_model_;
  Options options_;
  std::unique_ptr<ptf::TuningObjective> objective_;

  // DTA state.
  hwsim::NodeSimulator* node_ = nullptr;
  const workload::Benchmark* app_ = nullptr;
  instr::InstrumentationFilter filter_;
  Step step_ = Step::kThreads;
  DtaResult result_;
};

}  // namespace ecotune::core
