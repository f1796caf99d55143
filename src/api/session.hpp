#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/static_tuner.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "core/dvfs_ufs_plugin.hpp"
#include "core/evaluation.hpp"
#include "hwsim/node.hpp"
#include "model/dataset.hpp"
#include "model/energy_model.hpp"
#include "ptf/tuner.hpp"
#include "store/measurement_store.hpp"
#include "tuners/registry.hpp"
#include "workload/suite.hpp"

namespace ecotune::api {

/// Builder-style configuration of a Session. Every knob has the canonical
/// default the drivers shipped with (paper-faithful acquisition grid,
/// 10 training epochs, energy objective, radius-1 verification), so
/// `Session(SessionConfig{})` reproduces the quickstart stack; chained
/// setters override individual knobs:
///
///   api::Session session(api::SessionConfig{}
///       .seed(42).jobs(8).cache(dir, "rw").objective("energy"));
///
/// Seeding convention: `seed(s)` derives the training node from Rng(s) and
/// the tuning node from Rng(s + 1) -- the ecotune_dta convention. Drivers
/// with historical fixed seeds pin them individually via train_seed() /
/// tuning_seed() instead.
class SessionConfig {
 public:
  /// Canonical seed: training node Rng(s), tuning node Rng(s + 1).
  SessionConfig& seed(std::uint64_t s) {
    train_seed_ = s;
    tuning_seed_ = s + 1;
    return *this;
  }
  /// Pins the training-node RNG seed independently of seed().
  SessionConfig& train_seed(std::uint64_t s) {
    train_seed_ = s;
    return *this;
  }
  /// Pins the tuning-node RNG seed independently of seed().
  SessionConfig& tuning_seed(std::uint64_t s) {
    tuning_seed_ = s;
    return *this;
  }
  /// Cluster id of the tuning node (default 1; the training node is 0).
  SessionConfig& tuning_node_id(int id) {
    tuning_node_id_ = id;
    return *this;
  }
  /// Parallel workers for sweeps, training, and campaigns (0 = hardware
  /// concurrency). All outputs are bitwise identical for any value.
  SessionConfig& jobs(int n) {
    jobs_ = n;
    return *this;
  }
  /// Persistent measurement store. `mode_text` is the CLI's "rw|ro|off"
  /// (empty = rw when `dir` is non-empty, off otherwise); resolution errors
  /// surface when the Session opens the store.
  SessionConfig& cache(std::string dir, std::string mode_text = {}) {
    cache_dir_ = std::move(dir);
    cache_mode_ = std::move(mode_text);
    return *this;
  }
  /// Store task-key namespace (the driver's name), so several drivers can
  /// share one cache directory without cross-invalidating entries.
  SessionConfig& scope(std::string driver_scope) {
    scope_ = std::move(driver_scope);
    return *this;
  }
  /// Tuning objective: energy|cpu_energy|time|edp|ed2p|tco.
  SessionConfig& objective(std::string name) {
    objective_ = std::move(name);
    return *this;
  }
  /// Energy-model training epochs (paper: 10 for the final model).
  SessionConfig& epochs(int n) {
    epochs_ = n;
    return *this;
  }
  /// Neighborhood radius of the verified frequency search (paper: 1).
  SessionConfig& radius(int n) {
    radius_ = n;
    return *this;
  }
  /// Per-region model-based prediction (paper Sec. VI outlook).
  SessionConfig& per_region(bool on) {
    per_region_ = on;
    return *this;
  }
  /// Phase iterations averaged per DTA verification scenario.
  SessionConfig& iterations_per_scenario(int n) {
    iterations_per_scenario_ = n;
    return *this;
  }
  /// Runs averaged per savings measurement (paper: 5).
  SessionConfig& repeats(int n) {
    repeats_ = n;
    return *this;
  }
  /// Base acquisition options (thread grid, strides, ...); the session
  /// overrides jobs and store.
  SessionConfig& acquisition(model::AcquisitionOptions opts) {
    acquisition_ = std::move(opts);
    return *this;
  }
  /// Base static-search options; the session overrides jobs and store.
  SessionConfig& static_search(baseline::StaticTunerOptions opts) {
    static_search_ = std::move(opts);
    return *this;
  }

  // Read accessors (used by Session; public so shims can introspect).
  [[nodiscard]] std::uint64_t train_seed() const { return train_seed_; }
  [[nodiscard]] std::uint64_t tuning_seed() const { return tuning_seed_; }
  [[nodiscard]] int tuning_node_id() const { return tuning_node_id_; }
  [[nodiscard]] int jobs() const { return jobs_; }
  [[nodiscard]] const std::string& cache_dir() const { return cache_dir_; }
  [[nodiscard]] const std::string& cache_mode() const { return cache_mode_; }
  [[nodiscard]] const std::string& scope() const { return scope_; }
  [[nodiscard]] const std::string& objective() const { return objective_; }
  [[nodiscard]] int epochs() const { return epochs_; }
  [[nodiscard]] int radius() const { return radius_; }
  [[nodiscard]] bool per_region() const { return per_region_; }
  [[nodiscard]] int iterations_per_scenario() const {
    return iterations_per_scenario_;
  }
  [[nodiscard]] int repeats() const { return repeats_; }
  [[nodiscard]] const model::AcquisitionOptions& acquisition() const {
    return acquisition_;
  }
  [[nodiscard]] const baseline::StaticTunerOptions& static_search() const {
    return static_search_;
  }
  /// The simulated CPU: always the paper's Haswell-EP.
  [[nodiscard]] const hwsim::CpuSpec& spec() const { return spec_; }

 private:
  std::uint64_t train_seed_ = 42;
  std::uint64_t tuning_seed_ = 43;
  int tuning_node_id_ = 1;
  int jobs_ = 0;
  std::string cache_dir_;
  std::string cache_mode_;
  std::string scope_;
  std::string objective_ = "energy";
  int epochs_ = 10;
  int radius_ = 1;
  bool per_region_ = false;
  int iterations_per_scenario_ = 1;
  int repeats_ = 5;
  model::AcquisitionOptions acquisition_;
  baseline::StaticTunerOptions static_search_;
  hwsim::CpuSpec spec_ = hwsim::haswell_ep_spec();
};

/// One design-time analysis outcome: everything the plugin produced plus
/// the request context a report renderer needs.
struct DtaReport {
  std::string benchmark;
  std::string objective;
  core::DtaResult result;

  /// Structured document: human-oriented summary fields plus the exact
  /// (bitwise double round-trip) DtaResult under "result".
  [[nodiscard]] Json to_json() const;
};

/// A multi-benchmark campaign: one trained model amortized over all DTAs,
/// which run concurrently on per-benchmark node clones (jobs-invariant).
struct CampaignReport {
  std::vector<DtaReport> reports;

  [[nodiscard]] Json to_json() const;
};

/// Savings evaluation over one or more benchmarks (paper Table VI rows).
struct SavingsReport {
  std::vector<core::SavingsRow> rows;
};

/// The unified entry point to the paper's Fig. 1 workflow. A Session owns
/// the full stack every driver used to hand-wire -- simulated training and
/// tuning nodes with the canonical jitter/seed conventions, data
/// acquisition, the neural-network energy model, the measurement store,
/// and the jobs policy -- and exposes the workflow as typed calls:
///
///   api::Session session(api::SessionConfig{}.seed(42));
///   session.train_model();                       // acquire + fit, once
///   auto report = session.run_dta("Lulesh");     // full DTA
///   api::TextReportSink(std::cout).dta(report);  // render
///
/// Every analysis call (run_dta, run_dta_campaign, tune, evaluate_savings)
/// is a pure function of the session configuration, the trained model, its
/// arguments and a key. It runs on a private clone of the tuning node whose
/// noise stream is forked by the key, and its store entries are namespaced
/// by the key. The tuning node itself never advances, so equal calls return
/// equal bytes in any order, from any thread, and after a warm restart:
/// each call's whole result is one store row (`dta/<key>`, `tune/<key>`,
/// `savings/<key>`), so a repeated call is one lookup.
/// Key-less overloads derive the key from their arguments. A driver that
/// reproduces one experiment sequence on one node instead passes its own
/// tuning_node().clone() to run_dta(app, node); the sequence state lives in
/// that node.
///
/// A keyed call is one unit of a larger concurrent workload (a daemon
/// request) and runs its engine on one worker; a key-less call is a lone
/// driver call and uses jobs() workers. Outputs are jobs-invariant.
///
/// Thread safety: the analysis calls and train_model() may run on many
/// threads at once (the first train_model() trains, concurrent callers wait
/// for it). use_model() and acquire_dataset() must not overlap any other
/// call: acquisition advances the training node.
class Session {
 public:
  /// Opens the measurement store eagerly; throws ecotune::Error on an
  /// unresolvable cache mode or an unopenable cache directory (drivers map
  /// this to exit code 2 via open_session_or_exit).
  explicit Session(SessionConfig config = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // -- Model (paper Sec. IV): train once, reuse everywhere. ---------------

  /// Acquires the training dataset and fits the energy model. Idempotent:
  /// subsequent calls (and every entry point below) reuse the first result.
  /// With the store enabled, the fitted model is the `model` store
  /// entry, keyed by the dataset, the model configuration and the epoch
  /// count: a warm session loads it instead of training. The dataset's part
  /// of that key comes from the acquisition's summary entry, so a warm
  /// session that loads the model decodes no acquisition sweep.
  const model::EnergyModel& train_model() ECOTUNE_EXCLUDES(model_mutex_);
  /// Injects an already-trained model (e.g. deserialized from disk),
  /// skipping acquisition and training entirely.
  void use_model(model::EnergyModel model) ECOTUNE_EXCLUDES(model_mutex_);
  /// The session's trained model; throws PreconditionError if none yet.
  [[nodiscard]] const model::EnergyModel& model() const
      ECOTUNE_EXCLUDES(model_mutex_);

  /// Acquires a dataset on the training node: the final training split by
  /// default, or any explicit benchmark list (e.g. the full Table II suite
  /// for cross-validation).
  [[nodiscard]] model::EnergyDataset acquire_dataset();
  [[nodiscard]] model::EnergyDataset acquire_dataset(
      const std::vector<workload::Benchmark>& benchmarks);

  // -- Design-time analysis (paper Fig. 1 / Sec. III). --------------------

  /// Runs the full DTA for `app` on tuning_node().clone(key), training the
  /// model first if needed. The whole report is one store entry.
  DtaReport run_dta(const workload::Benchmark& app, const std::string& key);
  /// run_dta(app, "dta-" + app.name()).
  DtaReport run_dta(const workload::Benchmark& app);
  DtaReport run_dta(const std::string& benchmark_name);
  /// Runs the full DTA for `app` on the caller's `node` (advancing its clock
  /// and noise stream) with jobs() engine workers, and caches nothing but
  /// the engine's own per-chunk entries. For drivers that reproduce one
  /// experiment sequence on one node, like the paper's Tables III and IV:
  /// they pass the same tuning_node().clone() to each call, so the sequence
  /// lives in their node and not in the Session.
  DtaReport run_dta(const workload::Benchmark& app, hwsim::NodeSimulator& node);

  /// Runs the DTA for several benchmarks as one campaign: the model is
  /// trained once and row i is run_dta(apps[i], "campaign-0-<i>-<name>"),
  /// the rows running concurrently.
  CampaignReport run_dta_campaign(const std::vector<workload::Benchmark>& apps);
  CampaignReport run_dta_campaign(const std::vector<std::string>& names);

  // -- Tuning strategies behind the common Tuner seam. --------------------

  /// Runs a fresh instance of the named strategy (any default_registry()
  /// name: exhaustive, static, dta, qlearn, ondemand, conservative) on
  /// tuning_node().clone(key). Empty `objective` means the session's;
  /// "dta" trains the model on first use. The outcome is the store row
  /// `tune/<key>`, keyed by the strategy, the resolved objective, the node,
  /// the app, the key, the session's strategy options and -- for a strategy
  /// the registry marks as using the model -- the trained model. Throws
  /// ConfigError (with the registered-name list) on unknown names.
  TuningOutcome tune(const std::string& tuner_name,
                     const workload::Benchmark& app,
                     const std::string& objective, const std::string& key);
  /// Key "tune-<tuner>-<objective>-<app name>".
  TuningOutcome tune(const std::string& tuner_name,
                     const workload::Benchmark& app,
                     const std::string& objective);
  /// Under the session's objective.
  TuningOutcome tune(const std::string& tuner_name,
                     const workload::Benchmark& app);

  // -- Evaluation baselines (paper Sec. V-D). -----------------------------

  /// Static-vs-dynamic savings (Table VI protocol); trains first if needed.
  /// Row i is evaluated under the key "savings-0-<i>-<name>", the rows
  /// running concurrently.
  SavingsReport evaluate_savings(const std::vector<workload::Benchmark>& apps);
  /// The savings row for `app` on tuning_node().clone(key).
  core::SavingsRow evaluate_savings(const workload::Benchmark& app,
                                    const std::string& key);
  /// evaluate_savings({app}).rows.front().
  core::SavingsRow evaluate_savings(const workload::Benchmark& app);

  // -- Owned infrastructure. ----------------------------------------------

  /// Resolved parallel worker count (never 0).
  [[nodiscard]] int jobs() const { return jobs_; }
  [[nodiscard]] store::MeasurementStore& store() { return store_; }
  [[nodiscard]] const SessionConfig& config() const { return config_; }
  /// The tuning node every analysis call clones. Callers that want to
  /// measure on it take their own clone().
  [[nodiscard]] const hwsim::NodeSimulator& tuning_node() const {
    return tuning_node_;
  }
  /// The node acquisition runs on; train_model() and acquire_dataset()
  /// advance its clock, so read it only while neither runs.
  [[nodiscard]] const hwsim::NodeSimulator& training_node() const {
    return training_node_;
  }

  /// Prints the store's hit/miss summary to stderr when it is enabled.
  /// Stderr, not stdout: driver stdout must stay byte-identical between
  /// cold and warm runs.
  void print_store_summary() const;

 private:
  [[nodiscard]] DtaReport dta_row(const workload::Benchmark& app,
                                  const std::string& key, int jobs);
  /// The `tune/<key>` row: a fresh `tuner_name` strategy tuned on
  /// tuning_node().clone(key) under the resolved `objective`.
  [[nodiscard]] TuningOutcome tune_row(const std::string& tuner_name,
                                       const workload::Benchmark& app,
                                       const std::string& objective,
                                       const std::string& key, int jobs);
  /// An acquisition on the training node with the session's options.
  [[nodiscard]] model::DataAcquisition training_acquisition();
  [[nodiscard]] core::SavingsEvaluator savings_evaluator();
  [[nodiscard]] core::DvfsUfsPlugin::Options plugin_options(
      int jobs, const std::string& key_scope = {});

  SessionConfig config_;
  int jobs_;
  store::MeasurementStore store_;
  hwsim::NodeSimulator training_node_;
  hwsim::NodeSimulator tuning_node_;
  mutable Mutex model_mutex_;
  std::optional<model::EnergyModel> model_ ECOTUNE_GUARDED_BY(model_mutex_);
};

/// The one shared CLI store-open error path: constructs the Session and
/// maps any configuration/open failure to the uniform driver behavior --
/// "error: <what>" on stderr and exit code 2 (a CLI error, exactly like
/// every other flag-validation failure).
[[nodiscard]] std::unique_ptr<Session> open_session_or_exit(
    SessionConfig config);

}  // namespace ecotune::api
