#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/static_tuner.hpp"
#include "core/dvfs_ufs_plugin.hpp"
#include "ptf/tuner.hpp"
#include "tuners/dta_tuner.hpp"
#include "tuners/qlearning_tuner.hpp"

namespace ecotune::tuners {

/// Everything a strategy factory may need. jobs/store are threaded into
/// each strategy's options by the factory, mirroring how Session overrode
/// them on the hand-wired stacks; `model` is the lazy trained-model
/// provider only the DTA adapter consumes. The exhaustive and governor
/// strategies always run with their default options.
struct TunerContext {
  hwsim::NodeSimulator* node = nullptr;
  DtaTuner::ModelProvider model;  ///< may be empty if "dta" is never made
  int jobs = 1;
  store::MeasurementStore* store = nullptr;
  /// Store task-key namespace threaded into every strategy's per-config
  /// entries (and, for "dta", the engine's). Concurrent strategies over the
  /// same benchmark (one per service request) need distinct scopes or their
  /// store entries collide on identical task ids.
  std::string key_scope;
  baseline::StaticTunerOptions static_search;
  core::DvfsUfsPlugin::Options plugin;
  QLearningOptions qlearn;
};

/// Name -> factory map of every registered tuning strategy. Names are the
/// `--tuner` CLI vocabulary; names_joined() is sorted so diagnostics and
/// listings are deterministic.
class TunerRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Tuner>(const TunerContext& ctx)>;

  /// Registers (or replaces) a strategy factory under `name`. `uses_model`
  /// marks a strategy whose outcome depends on the trained energy model
  /// (it calls TunerContext::model), so a cached outcome must be keyed by
  /// the model too.
  void add(std::string name, Factory factory, bool uses_model = false);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Whether the registered strategy `name` uses the trained model; throws
  /// ConfigError like make() when `name` is unknown.
  [[nodiscard]] bool uses_model(const std::string& name) const;
  /// Comma-separated sorted names, for CLI diagnostics.
  [[nodiscard]] std::string names_joined() const;

  /// Instantiates the strategy `name` for `ctx`; throws ConfigError with
  /// the registered-name list when `name` is unknown.
  [[nodiscard]] std::unique_ptr<Tuner> make(const std::string& name,
                                            const TunerContext& ctx) const;

 private:
  struct Entry {
    Factory factory;
    bool uses_model = false;
  };
  /// The entry registered under `name`; throws ConfigError when unknown.
  [[nodiscard]] const Entry& entry(const std::string& name) const;

  std::map<std::string, Entry> entries_;
};

/// The built-in strategies: exhaustive, static, dta, qlearn, ondemand,
/// conservative.
[[nodiscard]] const TunerRegistry& default_registry();

}  // namespace ecotune::tuners
