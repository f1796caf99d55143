#include "baseline/static_tuner.hpp"

#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/parallel.hpp"
#include "instr/scorep_runtime.hpp"
#include "store/cached.hpp"

namespace ecotune::baseline {

StaticTuner::StaticTuner(hwsim::NodeSimulator& node,
                         StaticTunerOptions options)
    : node_(node), options_(options) {}

StaticTuningResult StaticTuner::tune(const workload::Benchmark& app,
                                     const ptf::TuningObjective& objective) {
  const auto& spec = node_.spec();
  const workload::Benchmark short_app =
      app.with_iterations(options_.phase_iterations);

  // Materialize the searched lattice in sweep order (threads, CF, UCF).
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
  ensure(!configs.empty(), "StaticTuner::tune: empty search space");

  // Evaluate every configuration on its own node clone with jitter keyed
  // by (tune() call, config index), so the sweep parallelizes without
  // changing any result and repeated tune() calls draw fresh noise.
  const long call_tag = tune_calls_++;
  struct Evaluated {
    StaticPoint point;
    Seconds elapsed{0};
  };
  Fingerprint base_fp;
  base_fp.add_digest("node", node_.state_fingerprint())
      .add_digest("app", short_app.fingerprint_digest());
  const auto evaluated = parallel_map_ordered(
      configs.size(),
      [&](std::size_t i) {
        const std::string noise_key = "static-tuner-" +
                                      std::to_string(call_tag) + "-" +
                                      std::to_string(i);
        return store::cached(
            options_.store,
            store::scoped_task("static", app.name(), options_.key_scope,
                               noise_key),
            [&] {
              return Fingerprint(base_fp)
                  .add("noise_key", noise_key)
                  .add("config", configs[i])
                  .digest();
            },
            [&](std::string_view payload) {
              Evaluated e;
              e.point.config = configs[i];
              JsonReader r(payload);
              r.begin_object();
              r.key("cpu_energy");
              e.point.cpu_energy = Joules(r.number());
              r.key("elapsed");
              e.elapsed = Seconds(r.number());
              r.key("node_energy");
              e.point.node_energy = Joules(r.number());
              r.key("time");
              e.point.time = Seconds(r.number());
              r.end_object();
              r.end();
              return e;
            },
            [&] {
              Evaluated e;
              e.point.config = configs[i];
              hwsim::NodeSimulator node = node_.clone(noise_key);
              const Seconds t0 = node.now();
              const auto run =
                  instr::run_uninstrumented(short_app, node, e.point.config);
              e.point.node_energy = run.node_energy;
              e.point.cpu_energy = run.cpu_energy;
              e.point.time = run.wall_time;
              e.elapsed = node.now() - t0;
              return e;
            },
            [](const Evaluated& e) {
              Json payload = Json::object();
              payload["node_energy"] = e.point.node_energy.value();
              payload["cpu_energy"] = e.point.cpu_energy.value();
              payload["time"] = e.point.time.value();
              payload["elapsed"] = e.elapsed.value();
              return payload;
            });
      },
      options_.jobs);

  // Ordered reduce in sweep order: first strict improvement wins, exactly
  // as the serial loop selected.
  StaticTuningResult result;
  double best_score = std::numeric_limits<double>::max();
  Seconds total{0};
  for (const auto& e : evaluated) {
    ++result.runs;
    ptf::Measurement m;
    m.node_energy = e.point.node_energy;
    m.cpu_energy = e.point.cpu_energy;
    m.time = e.point.time;
    m.count = 1;
    const double score = objective.evaluate(m);
    if (score < best_score) {
      best_score = score;
      result.best = e.point.config;
      result.best_point = e.point;
    }
    result.evaluated.push_back(e.point);
    total += e.elapsed;
  }
  result.search_time = total;
  // The clones consumed simulated time off the parent's timeline; put it
  // back so downstream accounting (now() deltas) stays meaningful.
  node_.idle(total);
  return result;
}

TuningOutcome StaticTuner::tune(const TuningRequest& request) {
  const auto objective = ptf::make_objective(request.objective);
  const StaticTuningResult result = tune(request.app, *objective);
  TuningOutcome out;
  out.tuner = std::string(name());
  out.objective = std::string(objective->name());
  out.best = result.best;
  out.scenarios_evaluated = result.runs;
  out.app_runs = result.runs;
  out.tuning_time = result.search_time;
  out.best_measurement.node_energy = result.best_point.node_energy;
  out.best_measurement.cpu_energy = result.best_point.cpu_energy;
  out.best_measurement.time = result.best_point.time;
  out.best_measurement.count = 1;
  return out;
}

}  // namespace ecotune::baseline
