#include "api/session.hpp"

#include <cstdlib>
#include <iostream>
#include <utility>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/parallel.hpp"
#include "store/cached.hpp"

namespace ecotune::api {
namespace {

/// Everything the trained bits depend on: the dataset (its training digest
/// and size, which the acquisition summary carries), every model
/// configuration field except jobs (any jobs value trains the same bits),
/// and the epoch count.
std::uint64_t model_fingerprint(const model::AcquisitionSummary& dataset,
                                const model::EnergyModelConfig& config,
                                int epochs) {
  const nn::MlpConfig& mlp = config.mlp;
  Fingerprint fp;
  fp.add_digest("dataset", dataset.training_digest)
      .add("samples", dataset.samples);
  for (std::size_t width : mlp.layer_sizes) fp.add("mlp.layer", width);
  fp.add("mlp.relu_output", mlp.relu_output)
      .add("mlp.learning_rate", mlp.learning_rate)
      .add("mlp.beta1", mlp.beta1)
      .add("mlp.beta2", mlp.beta2)
      .add("mlp.epsilon", mlp.epsilon)
      .add("config.epochs", config.epochs)
      .add("ensemble", config.ensemble)
      .add("seed", config.seed)
      .add("epochs", epochs);
  return fp.digest();
}

/// Run-to-run jitter of both simulated nodes.
constexpr double kNodeJitter = 0.002;
/// Cluster id of the training node.
constexpr int kTrainNodeId = 0;

hwsim::NodeSimulator make_node(const hwsim::CpuSpec& spec, int node_id,
                               std::uint64_t seed) {
  hwsim::NodeSimulator node(spec, node_id, Rng(seed));
  node.set_jitter(kNodeJitter);
  return node;
}

/// Key of a key-less tune() call: every argument that shapes the outcome.
std::string tune_key(const std::string& tuner_name,
                     const workload::Benchmark& app,
                     const std::string& objective) {
  return "tune-" + tuner_name + "-" + objective + "-" + app.name();
}

}  // namespace

Session::Session(SessionConfig config)
    : config_(std::move(config)),
      jobs_(resolve_jobs(config_.jobs())),
      training_node_(make_node(config_.spec(), kTrainNodeId,
                               config_.train_seed())),
      tuning_node_(make_node(config_.spec(), config_.tuning_node_id(),
                             config_.tuning_seed())) {
  // Store-mode resolution and the directory open both throw ecotune::Error
  // with a user-facing message; open_session_or_exit maps that to the
  // uniform CLI behavior (exit 2).
  store_.open(
      config_.cache_dir(),
      store::resolve_store_mode(config_.cache_mode(), config_.cache_dir()),
      config_.scope(), jobs_);
}

model::DataAcquisition Session::training_acquisition() {
  model::AcquisitionOptions opts = config_.acquisition();
  opts.jobs = jobs_;
  opts.store = &store_;
  return model::DataAcquisition(training_node_, opts);
}

model::EnergyDataset Session::acquire_dataset() {
  return acquire_dataset(workload::BenchmarkSuite::training_set());
}

model::EnergyDataset Session::acquire_dataset(
    const std::vector<workload::Benchmark>& benchmarks) {
  return training_acquisition().acquire(benchmarks);
}

const model::EnergyModel& Session::train_model() {
  const MutexLock lock(model_mutex_);
  if (model_) return *model_;
  // The model is keyed by the acquisition's summary, so a warm session
  // that loads the model decodes no sweep. The training node advances as
  // if the acquisition ran, either way.
  model::DataAcquisition acquisition = training_acquisition();
  const auto benchmarks = workload::BenchmarkSuite::training_set();
  std::optional<model::EnergyDataset> dataset;
  const model::AcquisitionSummary summary =
      acquisition.summarize(benchmarks, dataset);
  model::EnergyModelConfig model_cfg;
  model_cfg.jobs = jobs_;  // candidate pool trains concurrently, bitwise
                           // identical for any value
  const int epochs = config_.epochs();

  // The trained model is a store entry. Every dispatch level trains the
  // same bits, so one entry serves them all.
  model_.emplace(store::cached(
      &store_, "model",
      [&] { return model_fingerprint(summary, model_cfg, epochs); },
      [](std::string_view payload) {
        return model::EnergyModel::from_json(Json::parse(payload));
      },
      [&] {
        if (!dataset) dataset = acquisition.acquire(benchmarks);
        model::EnergyModel trained(model_cfg);
        trained.train(*dataset, epochs);
        return trained;
      },
      [](const model::EnergyModel& trained) { return trained.to_json(); }));
  if (!dataset) acquisition.replay(summary);
  return *model_;
}

void Session::use_model(model::EnergyModel model) {
  ensure(model.trained(),
         "Session::use_model: the injected energy model is untrained");
  const MutexLock lock(model_mutex_);
  model_ = std::move(model);
}

const model::EnergyModel& Session::model() const {
  const MutexLock lock(model_mutex_);
  ensure(model_.has_value(),
         "Session::model: no model yet; call train_model() or use_model()");
  return *model_;
}

core::DvfsUfsPlugin::Options Session::plugin_options(
    int jobs, const std::string& key_scope) {
  core::DvfsUfsPlugin::Options po;
  po.config.objective = config_.objective();
  po.config.neighborhood_radius = config_.radius();
  po.config.per_region_prediction = config_.per_region();
  po.engine.iterations_per_scenario = config_.iterations_per_scenario();
  po.engine.jobs = jobs;
  po.engine.store = &store_;
  po.engine.key_scope = key_scope;
  return po;
}

DtaReport Session::dta_row(const workload::Benchmark& app,
                           const std::string& key, int jobs) {
  const model::EnergyModel& trained = train_model();
  // Engine entries of concurrent rows must not collide on identical task
  // ids (same benchmark, step counters from zero).
  const core::DvfsUfsPlugin::Options po = plugin_options(jobs, key);
  const auto fingerprint = [&] {
    Fingerprint fp;
    fp.add_digest("node", tuning_node_.state_fingerprint())
        .add("plugin_config", po.config.to_json().dump(-1))
        .add("engine.iterations_per_scenario",
             po.engine.iterations_per_scenario)
        .add("engine.measurement_noise", po.engine.measurement_noise)
        .add("engine.seed", po.engine.seed)
        // The trained model determines every frequency recommendation, so
        // its full weight state is part of the row identity.
        .add("model", trained.canonical_digest())
        .add("noise_key", key)
        .add_digest("app", app.fingerprint_digest());
    return fp.digest();
  };
  // The payload is {"dta": result, "elapsed": seconds}; "elapsed" is
  // unread, and kept so the payload stays readable by older builds.
  using Row = std::pair<core::DtaResult, Seconds>;
  Row row = store::cached(
      &store_, "dta/" + key, fingerprint,
      [](std::string_view payload) {
        return Row{core::DtaResult::from_json(Json::parse(payload).at("dta")),
                   Seconds{0}};
      },
      [&] {
        hwsim::NodeSimulator node = tuning_node_.clone(key);
        const Seconds t0 = node.now();
        core::DtaResult result =
            core::DvfsUfsPlugin(trained, po).run_dta(app, node);
        return Row{std::move(result), node.now() - t0};
      },
      [](const Row& computed) {
        Json payload = Json::object();
        payload["dta"] = computed.first.to_json();
        payload["elapsed"] = computed.second.value();
        return payload;
      });
  return {app.name(), config_.objective(), std::move(row.first)};
}

DtaReport Session::run_dta(const workload::Benchmark& app,
                           const std::string& key) {
  return dta_row(app, key, 1);
}

DtaReport Session::run_dta(const workload::Benchmark& app) {
  return dta_row(app, "dta-" + app.name(), jobs_);
}

DtaReport Session::run_dta(const std::string& benchmark_name) {
  return run_dta(workload::BenchmarkSuite::by_name(benchmark_name));
}

DtaReport Session::run_dta(const workload::Benchmark& app,
                           hwsim::NodeSimulator& node) {
  const model::EnergyModel& trained = train_model();
  return {app.name(), config_.objective(),
          core::DvfsUfsPlugin(trained, plugin_options(jobs_))
              .run_dta(app, node)};
}

CampaignReport Session::run_dta_campaign(
    const std::vector<workload::Benchmark>& apps) {
  train_model();  // once, before the rows fan out
  CampaignReport campaign;
  // The "0" is the slot of a retired per-session call counter, kept so
  // stores written with it stay valid.
  campaign.reports = parallel_map_ordered(
      apps.size(),
      [&](std::size_t i) {
        return run_dta(apps[i], "campaign-0-" + std::to_string(i) + "-" +
                                    apps[i].name());
      },
      jobs_);
  return campaign;
}

CampaignReport Session::run_dta_campaign(
    const std::vector<std::string>& names) {
  std::vector<workload::Benchmark> apps;
  apps.reserve(names.size());
  for (const auto& name : names)
    apps.push_back(workload::BenchmarkSuite::by_name(name));
  return run_dta_campaign(apps);
}

TuningOutcome Session::tune_row(const std::string& tuner_name,
                                const workload::Benchmark& app,
                                const std::string& objective,
                                const std::string& key, int jobs) {
  const TuningRequest request{app, objective};
  const core::DvfsUfsPlugin::Options po = plugin_options(jobs);
  const auto fingerprint = [&] {
    const baseline::StaticTunerOptions& search = config_.static_search();
    const tuners::QLearningOptions& qlearn = config_.qlearn();
    Fingerprint fp;
    fp.add("tuner", tuner_name)
        .add("objective", request.objective)
        .add_digest("node", tuning_node_.state_fingerprint())
        .add_digest("app", app.fingerprint_digest())
        .add("noise_key", key);
    for (int t : search.thread_counts) fp.add("static.thread_count", t);
    fp.add("static.cf_stride", search.cf_stride)
        .add("static.ucf_stride", search.ucf_stride)
        .add("static.phase_iterations", search.phase_iterations)
        .add("qlearn.episodes", qlearn.episodes)
        .add("qlearn.alpha", qlearn.alpha)
        .add("qlearn.gamma", qlearn.gamma)
        .add("qlearn.epsilon0", qlearn.epsilon0)
        .add("qlearn.epsilon_decay", qlearn.epsilon_decay)
        .add("qlearn.epsilon_min", qlearn.epsilon_min)
        .add("qlearn.phase_iterations", qlearn.phase_iterations)
        .add("qlearn.cf_step", qlearn.cf_step)
        .add("qlearn.ucf_step", qlearn.ucf_step)
        .add("qlearn.seed", qlearn.seed);
    for (int t : qlearn.thread_counts) fp.add("qlearn.thread_count", t);
    fp.add("plugin_config", po.config.to_json().dump(-1))
        .add("engine.iterations_per_scenario",
             po.engine.iterations_per_scenario)
        .add("engine.measurement_noise", po.engine.measurement_noise)
        .add("engine.seed", po.engine.seed);
    // Only a strategy that uses the model trains it (and is keyed by it).
    if (tuners::default_registry().uses_model(tuner_name))
      fp.add("model", train_model().canonical_digest());
    return fp.digest();
  };
  return store::cached(
      &store_, "tune/" + key, fingerprint,
      [](std::string_view payload) { return TuningOutcome::from_json(payload); },
      [&] {
        hwsim::NodeSimulator node = tuning_node_.clone(key);
        tuners::TunerContext ctx;
        ctx.node = &node;
        ctx.model = [this]() -> const model::EnergyModel& {
          return train_model();
        };
        ctx.jobs = jobs;
        ctx.store = &store_;
        ctx.key_scope = key;
        ctx.static_search = config_.static_search();
        ctx.plugin = po;
        ctx.qlearn = config_.qlearn();
        return tuners::default_registry().make(tuner_name, ctx)->tune(request);
      },
      [](const TuningOutcome& outcome) { return outcome.to_json(); });
}

TuningOutcome Session::tune(const std::string& tuner_name,
                            const workload::Benchmark& app,
                            const std::string& objective,
                            const std::string& key) {
  return tune_row(tuner_name, app,
                  objective.empty() ? config_.objective() : objective, key, 1);
}

TuningOutcome Session::tune(const std::string& tuner_name,
                            const workload::Benchmark& app,
                            const std::string& objective) {
  // The key is built from the resolved objective, so tune(name, app, "")
  // and tune(name, app) share it.
  const std::string resolved =
      objective.empty() ? config_.objective() : objective;
  return tune_row(tuner_name, app, resolved,
                  tune_key(tuner_name, app, resolved), jobs_);
}

TuningOutcome Session::tune(const std::string& tuner_name,
                            const workload::Benchmark& app) {
  return tune(tuner_name, app, config_.objective());
}

core::SavingsEvaluator Session::savings_evaluator() {
  core::SavingsOptions opts;
  opts.repeats = config_.repeats();
  opts.static_search = config_.static_search();
  // Rows are the unit of parallelism; each row's engine stays serial.
  opts.plugin = plugin_options(1);
  opts.jobs = jobs_;
  opts.store = &store_;
  return core::SavingsEvaluator(tuning_node_, train_model(), opts);
}

SavingsReport Session::evaluate_savings(
    const std::vector<workload::Benchmark>& apps) {
  return {savings_evaluator().evaluate_all(apps)};
}

core::SavingsRow Session::evaluate_savings(const workload::Benchmark& app,
                                           const std::string& key) {
  return savings_evaluator().evaluate_keyed(app, key);
}

core::SavingsRow Session::evaluate_savings(const workload::Benchmark& app) {
  return std::move(evaluate_savings(std::vector{app}).rows.front());
}

void Session::print_store_summary() const {
  if (store_.enabled()) std::cerr << store_.summary() << '\n';
}

std::unique_ptr<Session> open_session_or_exit(SessionConfig config) {
  try {
    return std::make_unique<Session>(std::move(config));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    std::exit(2);
  }
}

}  // namespace ecotune::api
