#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/exhaustive_tuner.hpp"
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
/// jitter 0.002, 10 training epochs, energy objective, radius-1
/// verification), so `Session(SessionConfig{})` reproduces the quickstart
/// stack; chained setters override individual knobs:
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
  /// Cluster node ids (default: train on node 0, tune on node 1).
  SessionConfig& train_node_id(int id) {
    train_node_id_ = id;
    return *this;
  }
  SessionConfig& tuning_node_id(int id) {
    tuning_node_id_ = id;
    return *this;
  }
  /// Relative run-to-run jitter of both simulated nodes (default 0.002).
  SessionConfig& jitter(double relative_stddev) {
    jitter_ = relative_stddev;
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
  /// Base exhaustive-search options; the session overrides jobs and store.
  SessionConfig& exhaustive_search(baseline::ExhaustiveTunerOptions opts) {
    exhaustive_search_ = std::move(opts);
    return *this;
  }
  /// Q-learning hyperparameters; the session overrides the store.
  SessionConfig& qlearn(tuners::QLearningOptions opts) {
    qlearn_ = std::move(opts);
    return *this;
  }
  /// Governor-baseline tunables; the session overrides the store.
  SessionConfig& governor(tuners::GovernorOptions opts) {
    governor_ = opts;
    return *this;
  }
  /// Simulated CPU (default: the paper's Haswell-EP).
  SessionConfig& spec(hwsim::CpuSpec cpu_spec) {
    spec_ = std::move(cpu_spec);
    return *this;
  }
  /// simd(false) forces the scalar reference kernels (the historical
  /// bit-exact path) process-wide, exactly like ECOTUNE_SIMD=off; true
  /// (the default) keeps whatever dispatch level is already active.
  SessionConfig& simd(bool on) {
    simd_ = on;
    return *this;
  }
  /// In-memory shard count of the measurement store's index (0 = the
  /// store's kDefaultShardCount). Purely a concurrency knob: lookup
  /// results, stats totals, and the on-disk format are identical for every
  /// value.
  SessionConfig& store_shards(std::size_t n) {
    store_shards_ = n;
    return *this;
  }

  // Read accessors (used by Session; public so shims can introspect).
  [[nodiscard]] std::uint64_t train_seed() const { return train_seed_; }
  [[nodiscard]] std::uint64_t tuning_seed() const { return tuning_seed_; }
  [[nodiscard]] int train_node_id() const { return train_node_id_; }
  [[nodiscard]] int tuning_node_id() const { return tuning_node_id_; }
  [[nodiscard]] double jitter() const { return jitter_; }
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
  [[nodiscard]] const baseline::ExhaustiveTunerOptions& exhaustive_search()
      const {
    return exhaustive_search_;
  }
  [[nodiscard]] const tuners::QLearningOptions& qlearn() const {
    return qlearn_;
  }
  [[nodiscard]] const tuners::GovernorOptions& governor() const {
    return governor_;
  }
  [[nodiscard]] const hwsim::CpuSpec& spec() const { return spec_; }
  [[nodiscard]] bool simd() const { return simd_; }
  [[nodiscard]] std::size_t store_shards() const { return store_shards_; }

 private:
  std::uint64_t train_seed_ = 42;
  std::uint64_t tuning_seed_ = 43;
  int train_node_id_ = 0;
  int tuning_node_id_ = 1;
  double jitter_ = 0.002;
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
  baseline::ExhaustiveTunerOptions exhaustive_search_;
  tuners::QLearningOptions qlearn_;
  tuners::GovernorOptions governor_;
  hwsim::CpuSpec spec_ = hwsim::haswell_ep_spec();
  bool simd_ = true;
  std::size_t store_shards_ = 0;
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
/// All entry points share the session's trained model (train_model() is
/// idempotent; use_model() injects a deserialized one), its persistent
/// nodes (sequential run_dta calls see a continuously advancing simulated
/// clock, exactly like the hand-wired drivers), and its store.
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
  /// With the store enabled, the fitted model is the `model/<simd level>`
  /// entry, keyed by the dataset, the model configuration and the epoch
  /// count: a warm session loads it instead of training.
  const model::EnergyModel& train_model();
  /// Injects an already-trained model (e.g. deserialized from disk),
  /// skipping acquisition and training entirely.
  void use_model(model::EnergyModel model);
  [[nodiscard]] bool has_model() const { return model_.has_value(); }
  /// The session's trained model; throws PreconditionError if none yet.
  [[nodiscard]] const model::EnergyModel& model() const;

  /// Acquires a dataset on the training node: the final training split by
  /// default, or any explicit benchmark list (e.g. the full Table II suite
  /// for cross-validation).
  [[nodiscard]] model::EnergyDataset acquire_dataset();
  [[nodiscard]] model::EnergyDataset acquire_dataset(
      const std::vector<workload::Benchmark>& benchmarks);

  // -- Design-time analysis (paper Fig. 1 / Sec. III). --------------------

  /// Runs the full DTA for one benchmark on the session's tuning node,
  /// training the model first if needed.
  DtaReport run_dta(const workload::Benchmark& app);
  DtaReport run_dta(const std::string& benchmark_name);

  /// Runs the DTA for several benchmarks as one campaign: the model is
  /// trained once and every benchmark is analyzed concurrently on its own
  /// node clone (noise keyed by campaign slot, so the report is bitwise
  /// identical for any jobs value). Warm campaigns replay whole DTAs from
  /// the measurement store.
  CampaignReport run_dta_campaign(const std::vector<workload::Benchmark>& apps);
  CampaignReport run_dta_campaign(const std::vector<std::string>& names);

  // -- Tuning strategies behind the common Tuner seam. --------------------

  /// Runs the named strategy (any default_registry() name: exhaustive,
  /// static, dta, qlearn, ondemand, conservative) on the session's tuning
  /// node under the session's objective. Strategy instances persist for
  /// the session, so sequential calls decorrelate exactly like the
  /// hand-wired stacks; "dta" trains the model on first use.
  /// Throws ConfigError (with the registered-name list) on unknown names.
  TuningOutcome tune(const std::string& tuner_name,
                     const workload::Benchmark& app);
  TuningOutcome tune(const std::string& tuner_name,
                     const std::string& benchmark_name);
  /// tune() under an explicit objective name (overrides the session's).
  TuningOutcome tune(const std::string& tuner_name,
                     const workload::Benchmark& app,
                     const std::string& objective);

  /// The session's persistent instance of the named strategy (created on
  /// first use from tuners::default_registry()). The cache map itself is
  /// mutex-guarded so concurrent lookups cannot race the lazy emplace;
  /// the returned Tuner is NOT internally synchronized -- drive one
  /// strategy instance from one thread at a time.
  [[nodiscard]] Tuner& tuner(const std::string& tuner_name)
      ECOTUNE_EXCLUDES(tuners_mutex_);

  // -- Evaluation baselines (paper Sec. V-D). -----------------------------

  /// Exhaustive static search on the tuning node under the session's
  /// configured objective. Thin delegate over tuner("static"): one
  /// persistent tuner backs all calls, so sequential searches decorrelate
  /// exactly like the hand-wired drivers'.
  baseline::StaticTuningResult tune_static(const workload::Benchmark& app);
  /// tune_static under an explicit objective (overrides the session's).
  baseline::StaticTuningResult tune_static(
      const workload::Benchmark& app, const ptf::TuningObjective& objective);

  /// Static-vs-dynamic savings (Table VI protocol); trains first if needed.
  SavingsReport evaluate_savings(const std::vector<workload::Benchmark>& apps);
  core::SavingsRow evaluate_savings(const workload::Benchmark& app);

  // -- Multi-tenant service entry points (tools/ecotune_serve). -----------
  //
  // The _shared calls below are pure functions of (session config,
  // request_key, request): they never advance the session's base node or
  // any per-session counter, so many threads may call them concurrently on
  // one Session and every response is bitwise identical to the same request
  // served serially, in any order. Each request runs on a private clone of
  // the tuning node whose noise stream is keyed by the request key
  // (NodeSimulator::clone / Rng::fork), and all measurement-store task keys
  // are namespaced by the request key so concurrent requests against the
  // same benchmark cannot collide.

  /// Eagerly constructs both simulated nodes and trains the energy model so
  /// the shared entry points never race lazy initialization. Idempotent;
  /// call it once, single-threaded, before serving concurrent traffic.
  void warmup();
  /// True once warmup() (or equivalent eager use) has completed.
  [[nodiscard]] bool warmed_up() const {
    return tuning_node_.has_value() && model_.has_value();
  }

  /// Full DTA for `app` on a request-keyed clone. Whole reports replay
  /// from the measurement store on a warm restart (zero engine misses).
  /// Requires warmup(); throws PreconditionError otherwise.
  DtaReport run_dta_shared(const workload::Benchmark& app,
                           const std::string& request_key);
  DtaReport run_dta_shared(const std::string& benchmark_name,
                           const std::string& request_key);

  /// Runs the named strategy (any default_registry() name) on a
  /// request-keyed clone with a fresh strategy instance, so call
  /// decorrelation counters start at zero and the outcome depends only on
  /// the request. Empty `objective` means the session's. Requires warmup()
  /// for model-backed strategies ("dta").
  TuningOutcome tune_shared(const std::string& tuner_name,
                            const workload::Benchmark& app,
                            const std::string& objective,
                            const std::string& request_key);

  /// Table VI savings row for `app` on a request-keyed clone; whole rows
  /// replay from the store on a warm restart. Requires warmup().
  core::SavingsRow evaluate_savings_shared(const workload::Benchmark& app,
                                           const std::string& request_key);

  // -- Owned infrastructure. ----------------------------------------------

  /// Resolved parallel worker count (never 0).
  [[nodiscard]] int jobs() const { return jobs_; }
  [[nodiscard]] store::MeasurementStore& store() { return store_; }
  [[nodiscard]] const SessionConfig& config() const { return config_; }
  /// The persistent simulated nodes (constructed lazily on first use).
  [[nodiscard]] hwsim::NodeSimulator& training_node();
  [[nodiscard]] hwsim::NodeSimulator& tuning_node();

  /// Prints the store's hit/miss summary to stderr when it is enabled.
  /// Stderr, not stdout: driver stdout must stay byte-identical between
  /// cold and warm runs.
  void print_store_summary() const;

 private:
  [[nodiscard]] core::DvfsUfsPlugin::Options plugin_options();
  [[nodiscard]] tuners::TunerContext tuner_context();

  SessionConfig config_;
  int jobs_;
  store::MeasurementStore store_;
  std::optional<hwsim::NodeSimulator> training_node_;
  std::optional<hwsim::NodeSimulator> tuning_node_;
  std::optional<model::EnergyModel> model_;
  /// Persistent per-strategy instances (tune-call decorrelation counters
  /// live on the tuner objects, so caching them preserves the hand-wired
  /// drivers' noise schedule across repeated calls). Guarded: tuner() is
  /// reachable from parallel campaign tasks, and a racing find/emplace on
  /// the map would be undefined behavior.
  Mutex tuners_mutex_;
  std::map<std::string, std::unique_ptr<Tuner>> tuners_
      ECOTUNE_GUARDED_BY(tuners_mutex_);
  std::optional<core::SavingsEvaluator> savings_evaluator_;
  long campaign_calls_ = 0;  ///< decorrelates campaigns on one session
};

/// The one shared CLI store-open error path: constructs the Session and
/// maps any configuration/open failure to the uniform driver behavior --
/// "error: <what>" on stderr and exit code 2 (a CLI error, exactly like
/// every other flag-validation failure).
[[nodiscard]] std::unique_ptr<Session> open_session_or_exit(
    SessionConfig config);

}  // namespace ecotune::api
