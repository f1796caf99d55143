#include "api/session.hpp"

#include <cstdlib>
#include <iostream>
#include <utility>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"

namespace ecotune::api {
namespace {

/// Everything the trained bits depend on: the dataset, every model
/// configuration field except jobs (any jobs value trains the same bits),
/// and the epoch count.
std::uint64_t model_fingerprint(const model::EnergyDataset& dataset,
                                const model::EnergyModelConfig& config,
                                int epochs) {
  const nn::MlpConfig& mlp = config.mlp;
  Fingerprint fp;
  fp.add_digest("dataset", dataset.training_digest())
      .add("samples", dataset.samples.size());
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

}  // namespace

Session::Session(SessionConfig config)
    : config_(std::move(config)), jobs_(resolve_jobs(config_.jobs())) {
  // Store-mode resolution and the directory open both throw ecotune::Error
  // with a user-facing message; open_session_or_exit maps that to the
  // uniform CLI behavior (exit 2).
  store_.open(
      config_.cache_dir(),
      store::resolve_store_mode(config_.cache_mode(), config_.cache_dir()),
      config_.scope(), config_.store_shards());
}

hwsim::NodeSimulator& Session::training_node() {
  if (!training_node_) {
    training_node_.emplace(config_.spec(), config_.train_node_id(),
                           Rng(config_.train_seed()));
    training_node_->set_jitter(config_.jitter());
  }
  return *training_node_;
}

hwsim::NodeSimulator& Session::tuning_node() {
  if (!tuning_node_) {
    tuning_node_.emplace(config_.spec(), config_.tuning_node_id(),
                         Rng(config_.tuning_seed()));
    tuning_node_->set_jitter(config_.jitter());
  }
  return *tuning_node_;
}

model::EnergyDataset Session::acquire_dataset() {
  return acquire_dataset(workload::BenchmarkSuite::training_set());
}

model::EnergyDataset Session::acquire_dataset(
    const std::vector<workload::Benchmark>& benchmarks) {
  model::AcquisitionOptions opts = config_.acquisition();
  opts.jobs = jobs_;
  opts.store = &store_;
  model::DataAcquisition acquisition(training_node(), opts);
  return acquisition.acquire(benchmarks);
}

const model::EnergyModel& Session::train_model() {
  if (model_) return *model_;
  // Acquisition always runs: it advances the training node's clock and
  // answers its own measurements from the store.
  const auto dataset = acquire_dataset();
  model::EnergyModelConfig model_cfg;
  model_cfg.jobs = jobs_;  // candidate pool trains concurrently, bitwise
                           // identical for any value
  const int epochs = config_.epochs();

  // The trained model is a store entry. Every dispatch level trains the
  // same bits, so one entry serves them all.
  store::MeasurementKey key;
  if (store_.enabled()) {
    key.task = "model";
    key.fingerprint = model_fingerprint(dataset, model_cfg, epochs);
    if (const auto hit = store_.lookup(key)) {
      try {
        model_.emplace(model::EnergyModel::from_json(*hit));
        return *model_;
      } catch (const std::exception& e) {
        log::error("api") << "undecodable cache payload for '" << key.task
                          << "' (" << e.what() << "); retraining the model";
      }
    }
  }

  model_.emplace(model_cfg);
  model_->train(dataset, epochs);
  if (store_.enabled()) store_.insert(key, model_->to_json());
  return *model_;
}

void Session::use_model(model::EnergyModel model) {
  ensure(model.trained(),
         "Session::use_model: the injected energy model is untrained");
  model_ = std::move(model);
}

const model::EnergyModel& Session::model() const {
  ensure(model_.has_value(),
         "Session::model: no model yet; call train_model() or use_model()");
  return *model_;
}

core::DvfsUfsPlugin::Options Session::plugin_options() {
  core::DvfsUfsPlugin::Options po;
  po.config.objective = config_.objective();
  po.config.neighborhood_radius = config_.radius();
  po.config.per_region_prediction = config_.per_region();
  po.engine.iterations_per_scenario = config_.iterations_per_scenario();
  po.engine.jobs = jobs_;
  po.engine.store = &store_;
  return po;
}

tuners::TunerContext Session::tuner_context() {
  tuners::TunerContext ctx;
  ctx.node = &tuning_node();
  ctx.model = [this]() -> const model::EnergyModel& { return train_model(); };
  ctx.jobs = jobs_;
  ctx.store = &store_;
  ctx.static_search = config_.static_search();
  ctx.exhaustive_search = config_.exhaustive_search();
  ctx.plugin = plugin_options();
  ctx.qlearn = config_.qlearn();
  ctx.governor = config_.governor();
  return ctx;
}

Tuner& Session::tuner(const std::string& tuner_name) {
  const MutexLock lock(tuners_mutex_);
  auto it = tuners_.find(tuner_name);
  if (it == tuners_.end()) {
    it = tuners_
             .emplace(tuner_name, tuners::default_registry().make(
                                      tuner_name, tuner_context()))
             .first;
  }
  return *it->second;
}

TuningOutcome Session::tune(const std::string& tuner_name,
                            const workload::Benchmark& app) {
  return tune(tuner_name, app, config_.objective());
}

TuningOutcome Session::tune(const std::string& tuner_name,
                            const std::string& benchmark_name) {
  return tune(tuner_name, workload::BenchmarkSuite::by_name(benchmark_name));
}

TuningOutcome Session::tune(const std::string& tuner_name,
                            const workload::Benchmark& app,
                            const std::string& objective) {
  const TuningRequest request{app, objective};
  return tuner(tuner_name).tune(request);
}

DtaReport Session::run_dta(const workload::Benchmark& app) {
  auto& dta = dynamic_cast<tuners::DtaTuner&>(tuner("dta"));
  DtaReport report;
  report.benchmark = app.name();
  report.objective = config_.objective();
  report.result = dta.run(app);
  return report;
}

DtaReport Session::run_dta(const std::string& benchmark_name) {
  return run_dta(workload::BenchmarkSuite::by_name(benchmark_name));
}

CampaignReport Session::run_dta_campaign(
    const std::vector<workload::Benchmark>& apps) {
  const auto& trained = train_model();
  const long call_tag = campaign_calls_++;
  auto& base = tuning_node();
  const core::DvfsUfsPlugin::Options po = plugin_options();

  // Whole-DTA row caching, deliberately mirroring
  // SavingsEvaluator::evaluate_all (core/evaluation.cpp): base fingerprint
  // over node state + plugin/engine options + full model dump, per-row
  // noise-keyed lookup with decode-fallback, clone + elapsed accounting,
  // ordered reduce, base.idle(total). A change to either copy's cache
  // invariants (new fingerprint field, fallback policy) belongs in both.
  store::MeasurementStore* cache = store_.enabled() ? &store_ : nullptr;
  Fingerprint base_fp;
  if (cache != nullptr) {
    base_fp.add_digest("node", base.state_fingerprint())
        .add("plugin_config", po.config.to_json().dump(-1))
        .add("engine.iterations_per_scenario",
             po.engine.iterations_per_scenario)
        .add("engine.measurement_noise", po.engine.measurement_noise)
        .add("engine.seed", po.engine.seed)
        // The trained model determines every frequency recommendation, so
        // its full weight state is part of each campaign row's identity.
        .add("model", trained.canonical_json());
  }

  struct Outcome {
    core::DtaResult result;
    Seconds elapsed{0};
  };
  auto outcomes = parallel_map_ordered(
      apps.size(),
      [&](std::size_t i) {
        const std::string noise_key = "campaign-" + std::to_string(call_tag) +
                                      "-" + std::to_string(i) + "-" +
                                      apps[i].name();
        store::MeasurementKey key;
        if (cache != nullptr) {
          Fingerprint fp = base_fp;
          fp.add("noise_key", noise_key)
              .add_digest("app", apps[i].fingerprint_digest());
          key.task = "dta/" + noise_key;
          key.fingerprint = fp.digest();
          if (const auto hit = cache->lookup(key)) {
            try {
              Outcome out;
              out.result = core::DtaResult::from_json(hit->at("dta"));
              out.elapsed = Seconds(hit->at("elapsed").as_number());
              return out;
            } catch (const std::exception& e) {
              log::error("api")
                  << "undecodable cache payload for '" << key.task << "' ("
                  << e.what() << "); re-running the DTA";
            }
          }
        }

        hwsim::NodeSimulator node = base.clone(noise_key);
        const Seconds t0 = node.now();
        core::DvfsUfsPlugin::Options row_po = po;
        // Campaign rows already parallelize across benchmarks; keep each
        // row's engine serial so a campaign never multiplies worker counts.
        row_po.engine.jobs = 1;
        // Engine-level store entries of concurrent rows must not collide on
        // identical task ids (same benchmark, run counters from zero).
        row_po.engine.key_scope = noise_key;
        core::DvfsUfsPlugin plugin(trained, row_po);
        Outcome out;
        out.result = plugin.run_dta(apps[i], node);
        out.elapsed = node.now() - t0;

        if (cache != nullptr) {
          Json payload = Json::object();
          payload["dta"] = out.result.to_json();
          payload["elapsed"] = out.elapsed.value();
          cache->insert(key, payload);
        }
        return out;
      },
      jobs_);

  CampaignReport campaign;
  campaign.reports.reserve(outcomes.size());
  Seconds total{0};
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    DtaReport report;
    report.benchmark = apps[i].name();
    report.objective = config_.objective();
    report.result = std::move(outcomes[i].result);
    campaign.reports.push_back(std::move(report));
    total += outcomes[i].elapsed;
  }
  // The campaign consumed simulated time on the clones; advance the base
  // node by the same amount (mirrors SavingsEvaluator::evaluate_all).
  base.idle(total);
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

baseline::StaticTuningResult Session::tune_static(
    const workload::Benchmark& app) {
  return tune_static(app, *ptf::make_objective(config_.objective()));
}

baseline::StaticTuningResult Session::tune_static(
    const workload::Benchmark& app, const ptf::TuningObjective& objective) {
  auto& tuner = dynamic_cast<baseline::StaticTuner&>(this->tuner("static"));
  return tuner.tune(app, objective);
}

SavingsReport Session::evaluate_savings(
    const std::vector<workload::Benchmark>& apps) {
  if (!savings_evaluator_) {
    const auto& trained = train_model();
    core::SavingsOptions opts;
    opts.repeats = config_.repeats();
    opts.static_search = config_.static_search();
    opts.plugin = plugin_options();
    // Rows parallelize across benchmarks; keep the per-row engine serial so
    // the evaluation never multiplies worker counts (exactly the hand-wired
    // drivers' layout). Output is jobs-invariant either way.
    opts.plugin.engine.jobs = 1;
    opts.jobs = jobs_;
    opts.store = &store_;
    savings_evaluator_.emplace(tuning_node(), trained, opts);
  }
  SavingsReport report;
  report.rows = savings_evaluator_->evaluate_all(apps);
  return report;
}

core::SavingsRow Session::evaluate_savings(const workload::Benchmark& app) {
  auto report = evaluate_savings(std::vector<workload::Benchmark>{app});
  return std::move(report.rows.front());
}

void Session::warmup() {
  training_node();
  tuning_node();
  train_model();
}

DtaReport Session::run_dta_shared(const workload::Benchmark& app,
                                  const std::string& request_key) {
  ensure(!request_key.empty(), "Session::run_dta_shared: empty request key");
  ensure(warmed_up(),
         "Session::run_dta_shared: call warmup() before shared entry points");
  const auto& trained = *model_;
  const auto& base = *tuning_node_;  // read-only: shared calls are pure
  const core::DvfsUfsPlugin::Options po = plugin_options();
  const std::string noise_key = "serve-" + request_key;

  // Whole-DTA caching mirroring run_dta_campaign's rows (same fingerprint
  // recipe, same payload shape), but keyed by the request instead of a
  // campaign slot and without advancing the base node: a warm restart of
  // the daemon replays whole reports with zero engine misses.
  store::MeasurementStore* cache = store_.enabled() ? &store_ : nullptr;
  store::MeasurementKey key;
  if (cache != nullptr) {
    Fingerprint fp;
    fp.add_digest("node", base.state_fingerprint())
        .add("plugin_config", po.config.to_json().dump(-1))
        .add("engine.iterations_per_scenario",
             po.engine.iterations_per_scenario)
        .add("engine.measurement_noise", po.engine.measurement_noise)
        .add("engine.seed", po.engine.seed)
        .add("model", trained.canonical_json())
        .add("noise_key", noise_key)
        .add_digest("app", app.fingerprint_digest());
    key.task = "dta/" + noise_key;
    key.fingerprint = fp.digest();
    if (const auto hit = cache->lookup(key)) {
      try {
        DtaReport report;
        report.benchmark = app.name();
        report.objective = config_.objective();
        report.result = core::DtaResult::from_json(hit->at("dta"));
        return report;
      } catch (const std::exception& e) {
        log::error("api") << "undecodable cache payload for '" << key.task
                          << "' (" << e.what() << "); re-running the DTA";
      }
    }
  }

  hwsim::NodeSimulator node = base.clone(noise_key);
  const Seconds t0 = node.now();
  core::DvfsUfsPlugin::Options row_po = po;
  // The daemon already parallelizes across requests; keep each request's
  // engine serial so concurrent traffic never multiplies worker counts.
  row_po.engine.jobs = 1;
  // Engine-level store entries of concurrent requests must not collide on
  // identical task ids (same benchmark, step counters from zero).
  row_po.engine.key_scope = noise_key;
  core::DvfsUfsPlugin plugin(trained, row_po);
  DtaReport report;
  report.benchmark = app.name();
  report.objective = config_.objective();
  report.result = plugin.run_dta(app, node);

  if (cache != nullptr) {
    Json payload = Json::object();
    payload["dta"] = report.result.to_json();
    payload["elapsed"] = (node.now() - t0).value();
    cache->insert(key, payload);
  }
  return report;
}

DtaReport Session::run_dta_shared(const std::string& benchmark_name,
                                  const std::string& request_key) {
  return run_dta_shared(workload::BenchmarkSuite::by_name(benchmark_name),
                        request_key);
}

TuningOutcome Session::tune_shared(const std::string& tuner_name,
                                   const workload::Benchmark& app,
                                   const std::string& objective,
                                   const std::string& request_key) {
  ensure(!request_key.empty(), "Session::tune_shared: empty request key");
  ensure(tuning_node_.has_value(),
         "Session::tune_shared: call warmup() before shared entry points");
  const std::string noise_key = "serve-" + request_key;
  hwsim::NodeSimulator node = tuning_node_->clone(noise_key);

  tuners::TunerContext ctx;
  ctx.node = &node;
  // model(), not train_model(): training inside a concurrent request would
  // race; warmup() trained the model up front.
  ctx.model = [this]() -> const model::EnergyModel& { return model(); };
  // One request, one worker: the daemon parallelizes across requests.
  ctx.jobs = 1;
  ctx.store = &store_;
  ctx.key_scope = noise_key;
  ctx.static_search = config_.static_search();
  ctx.exhaustive_search = config_.exhaustive_search();
  ctx.plugin = plugin_options();
  ctx.qlearn = config_.qlearn();
  ctx.governor = config_.governor();
  const auto strategy = tuners::default_registry().make(tuner_name, ctx);
  const TuningRequest request{
      app, objective.empty() ? config_.objective() : objective};
  return strategy->tune(request);
}

core::SavingsRow Session::evaluate_savings_shared(
    const workload::Benchmark& app, const std::string& request_key) {
  ensure(!request_key.empty(),
         "Session::evaluate_savings_shared: empty request key");
  ensure(warmed_up(),
         "Session::evaluate_savings_shared: call warmup() before shared "
         "entry points");
  const auto& trained = *model_;
  const auto& base = *tuning_node_;
  const std::string noise_key = "serve-" + request_key;

  core::SavingsOptions opts;
  opts.repeats = config_.repeats();
  opts.static_search = config_.static_search();
  opts.plugin = plugin_options();
  opts.plugin.engine.jobs = 1;
  opts.jobs = 1;
  opts.store = &store_;
  // Namespace the inner static-search and DTA-engine entries by request.
  opts.static_search.key_scope = noise_key;
  opts.plugin.engine.key_scope = noise_key;

  // Whole-row caching mirroring SavingsEvaluator::evaluate_all (same
  // fingerprint recipe, same payload shape), keyed by the request.
  store::MeasurementStore* cache = store_.enabled() ? &store_ : nullptr;
  store::MeasurementKey key;
  if (cache != nullptr) {
    Fingerprint fp;
    fp.add_digest("node", base.state_fingerprint())
        .add("repeats", opts.repeats)
        .add("plugin_config", opts.plugin.config.to_json().dump(-1))
        .add("engine.iterations_per_scenario",
             opts.plugin.engine.iterations_per_scenario)
        .add("engine.measurement_noise", opts.plugin.engine.measurement_noise)
        .add("engine.seed", opts.plugin.engine.seed)
        .add("static.cf_stride", opts.static_search.cf_stride)
        .add("static.ucf_stride", opts.static_search.ucf_stride)
        .add("static.phase_iterations", opts.static_search.phase_iterations)
        .add("model", trained.canonical_json());
    for (int t : opts.static_search.thread_counts)
      fp.add("static.thread_count", t);
    fp.add("noise_key", noise_key).add_digest("app", app.fingerprint_digest());
    key.task = "savings/" + noise_key;
    key.fingerprint = fp.digest();
    if (const auto hit = cache->lookup(key)) {
      try {
        return core::SavingsRow::from_json(hit->at("row"));
      } catch (const std::exception& e) {
        log::error("api") << "undecodable cache payload for '" << key.task
                          << "' (" << e.what() << "); re-evaluating";
      }
    }
  }

  hwsim::NodeSimulator node = base.clone(noise_key);
  const Seconds t0 = node.now();
  core::SavingsEvaluator evaluator(node, trained, opts);
  core::SavingsRow row = evaluator.evaluate(app);

  if (cache != nullptr) {
    Json payload = Json::object();
    payload["row"] = row.to_json();
    payload["elapsed"] = (node.now() - t0).value();
    cache->insert(key, payload);
  }
  return row;
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
