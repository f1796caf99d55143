#include "baseline/exhaustive_tuner.hpp"

#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/parallel.hpp"
#include "instr/scorep_runtime.hpp"
#include "store/cached.hpp"

namespace ecotune::baseline {
namespace {

/// Collects per-region measurements of one manually instrumented run.
class RegionCollector final : public instr::RegionListener {
 public:
  void on_exit(const instr::RegionExit& e) override {
    if (e.type == instr::RegionType::kPhase) return;
    auto& m = measurements_[std::string(e.region)];
    m.node_energy += e.node_energy;
    m.cpu_energy += e.cpu_energy;
    m.time += e.duration();
    m.count += 1;
  }

  [[nodiscard]] const std::map<std::string, ptf::Measurement>& measurements()
      const {
    return measurements_;
  }

 private:
  std::map<std::string, ptf::Measurement> measurements_;
};

}  // namespace

ExhaustiveTuner::ExhaustiveTuner(hwsim::NodeSimulator& node,
                                 ExhaustiveTunerOptions options)
    : node_(node), options_(options) {}

ExhaustiveTuningResult ExhaustiveTuner::tune(
    const workload::Benchmark& app, const ptf::TuningObjective& objective) {
  const auto& spec = node_.spec();

  // The full (threads x CF x UCF) lattice in sweep order.
  std::vector<SystemConfig> configs;
  for (int threads : options_.thread_counts) {
    for (std::size_t ci = 0; ci < spec.core_grid.size();
         ci += static_cast<std::size_t>(options_.cf_stride)) {
      for (std::size_t ui = 0; ui < spec.uncore_grid.size();
           ui += static_cast<std::size_t>(options_.ucf_stride)) {
        configs.push_back(SystemConfig{threads, spec.core_grid.at(ci),
                                       spec.uncore_grid.at(ui)});
      }
    }
  }
  ensure(!configs.empty(), "ExhaustiveTuner::tune: empty search space");

  // Manual instrumentation of every region (Sourouri et al. annotate each
  // region by hand): full instrumentation, full application run. Each
  // configuration runs on a node clone with jitter keyed by (tune() call,
  // config index) so the sweep parallelizes deterministically and repeated
  // tune() calls draw fresh noise.
  const long call_tag = tune_calls_++;
  struct RunOutcome {
    ptf::Measurement app;
    std::map<std::string, ptf::Measurement> regions;
    Seconds wall_time{0};
    Seconds elapsed{0};
  };
  Fingerprint base_fp;
  base_fp.add_digest("node", node_.state_fingerprint())
      .add_digest("app", app.fingerprint_digest());
  const auto outcomes = parallel_map_ordered(
      configs.size(),
      [&](std::size_t i) {
        const std::string noise_key = "exhaustive-tuner-" +
                                      std::to_string(call_tag) + "-" +
                                      std::to_string(i);
        return store::cached(
            options_.store,
            store::scoped_task("exhaustive", app.name(), options_.key_scope,
                               noise_key),
            [&] {
              return Fingerprint(base_fp)
                  .add("noise_key", noise_key)
                  .add("config", configs[i])
                  .digest();
            },
            [&](std::string_view payload) {
              RunOutcome out;
              JsonReader r(payload);
              r.begin_object();
              r.key("app");
              out.app = ptf::read_measurement(r);
              r.key("elapsed");
              out.elapsed = Seconds(r.number());
              r.key("regions");
              r.begin_object();
              for (std::string_view region; r.next_key(region);)
                out.regions[std::string(region)] = ptf::read_measurement(r);
              r.key("wall_time");
              out.wall_time = Seconds(r.number());
              r.end_object();
              r.end();
              // Every fully instrumented run measures all of the app's
              // regions; fewer means the payload is from another schema.
              ensure(out.regions.size() == app.regions().size(),
                     "payload covers a different region set");
              return out;
            },
            [&] {
              hwsim::NodeSimulator node = node_.clone(noise_key);
              const Seconds t0 = node.now();
              instr::ExecutionContext ctx(node);
              ctx.apply(configs[i]);
              RegionCollector collector;
              instr::ScorepRuntime runtime(
                  app, instr::InstrumentationFilter::instrument_all());
              runtime.add_listener(&collector);
              const auto run = runtime.execute(ctx);

              RunOutcome out;
              out.app.node_energy = run.node_energy;
              out.app.cpu_energy = run.cpu_energy;
              out.app.time = run.wall_time;
              out.app.count = 1;
              out.regions = collector.measurements();
              out.wall_time = run.wall_time;
              out.elapsed = node.now() - t0;
              return out;
            },
            [](const RunOutcome& out) {
              Json payload = Json::object();
              payload["app"] = ptf::to_json(out.app);
              Json regions = Json::object();
              for (const auto& [region, m] : out.regions)
                regions[region] = ptf::to_json(m);
              payload["regions"] = std::move(regions);
              payload["wall_time"] = out.wall_time.value();
              payload["elapsed"] = out.elapsed.value();
              return payload;
            });
      },
      options_.jobs);

  // Ordered reduce in sweep order (first strict improvement wins).
  ExhaustiveTuningResult result;
  std::map<std::string, double> best_scores;
  double best_app_score = std::numeric_limits<double>::max();
  Seconds one_run_time{0};
  Seconds total{0};
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const RunOutcome& out = outcomes[i];
    ++result.runs;
    if (one_run_time.value() == 0) one_run_time = out.wall_time;
    if (objective.evaluate(out.app) < best_app_score) {
      best_app_score = objective.evaluate(out.app);
      result.app_best = configs[i];
    }
    for (const auto& [region, m] : out.regions) {
      const double score = objective.evaluate(m);
      auto it = best_scores.find(region);
      if (it == best_scores.end() || score < it->second) {
        best_scores[region] = score;
        result.region_best[region] = configs[i];
      }
    }
    total += out.elapsed;
  }
  result.search_time = total;
  node_.idle(total);

  // Paper formula: n regions x k x l x m configurations, one full run each.
  const double n = static_cast<double>(result.region_best.size());
  const double klm = static_cast<double>(result.runs);
  result.formula_runs = n * klm;
  result.formula_time = one_run_time * result.formula_runs;
  return result;
}

TuningOutcome ExhaustiveTuner::tune(const TuningRequest& request) {
  const auto objective = ptf::make_objective(request.objective);
  const ExhaustiveTuningResult result = tune(request.app, *objective);
  TuningOutcome out;
  out.tuner = std::string(name());
  out.objective = std::string(objective->name());
  out.best = result.app_best;
  out.region_best = result.region_best;
  out.scenarios_evaluated = result.runs;
  out.app_runs = result.runs;
  out.tuning_time = result.search_time;
  return out;
}

}  // namespace ecotune::baseline
