#pragma once

#include <string_view>
#include <vector>

#include "hwsim/node.hpp"
#include "instr/filter.hpp"
#include "ptf/experiments_engine.hpp"
#include "ptf/tuning_parameter.hpp"
#include "workload/benchmark.hpp"

namespace ecotune::ptf {

/// What the frontend hands a plugin at initialization: the target
/// application and the node it is being tuned on.
class PluginContext {
 public:
  PluginContext(hwsim::NodeSimulator& node, const workload::Benchmark& app)
      : node_(node), app_(app) {}
  [[nodiscard]] hwsim::NodeSimulator& node() { return node_; }
  [[nodiscard]] const workload::Benchmark& app() const { return app_; }

 private:
  hwsim::NodeSimulator& node_;
  const workload::Benchmark& app_;
};

/// Simplified PTF Tuning Plugin Interface: the frontend drives the plugin
/// through initialize -> (create_scenarios -> experiments engine ->
/// process_results)* -> finalize, mirroring PTF's plugin lifecycle
/// (Miceli et al.).
class TuningPlugin {
 public:
  virtual ~TuningPlugin() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Pre-processing / design-time setup (instrumentation, filtering,
  /// significant-region detection for the DVFS/UFS plugin).
  virtual void initialize(PluginContext& ctx) = 0;

  /// Region instrumentation used for experiment runs (queried after
  /// initialize()).
  [[nodiscard]] virtual instr::InstrumentationFilter
  instrumentation_filter() const = 0;

  /// Base configuration for unspecified scenario parameters.
  [[nodiscard]] virtual SystemConfig scenario_base() const = 0;

  /// True while another tuning step remains.
  [[nodiscard]] virtual bool has_next_tuning_step() const = 0;

  /// Scenarios of the next tuning step (may run analysis internally, as PTF
  /// plugins do in startTuningStep).
  [[nodiscard]] virtual std::vector<Scenario> create_scenarios() = 0;

  /// Consumes the measurements of the step's scenarios.
  virtual void process_results(const std::vector<ScenarioResult>& results) = 0;

  /// End of design-time analysis (tuning model generation for the DVFS/UFS
  /// plugin).
  virtual void finalize() {}
};

/// The PTF frontend: owns the experiments engine and drives a plugin's
/// tuning steps to completion.
class Frontend {
 public:
  explicit Frontend(EngineOptions engine_options = {})
      : engine_options_(engine_options) {}

  /// Runs the full design-time analysis of `plugin` on `app`/`node`.
  /// Returns the total number of scenarios executed.
  int run(TuningPlugin& plugin, const workload::Benchmark& app,
          hwsim::NodeSimulator& node);

  /// Application runs of the last run().
  [[nodiscard]] long app_runs() const { return app_runs_; }

 private:
  EngineOptions engine_options_;
  long app_runs_ = 0;
};

}  // namespace ecotune::ptf
