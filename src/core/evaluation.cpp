#include "core/evaluation.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/parallel.hpp"
#include "energymon/rapl.hpp"
#include "energymon/sacct.hpp"
#include "instr/scorep_runtime.hpp"
#include "readex/rrl.hpp"
#include "store/cached_row.hpp"

namespace ecotune::core {

SavingsEvaluator::SavingsEvaluator(hwsim::NodeSimulator& node,
                                   const model::EnergyModel& energy_model,
                                   SavingsOptions options)
    : node_(node), energy_model_(energy_model), options_(options) {
  // One flag threads the store everywhere: the inner static search and the
  // DTA experiments engine see the same cache, so a cold row still reuses
  // previously measured sweeps.
  if (options_.store != nullptr) {
    options_.static_search.store = options_.store;
    options_.plugin.engine.store = options_.store;
  }
}

SavingsEvaluator::Measured SavingsEvaluator::measure_static(
    const workload::Benchmark& app, const SystemConfig& config) {
  energymon::Sacct sacct(node_);
  energymon::Rapl rapl(node_);
  energymon::MeasureRapl rapl_tool(rapl);
  Measured avg;
  for (int r = 0; r < options_.repeats; ++r) {
    sacct.job_start(app.name());
    rapl_tool.start();
    instr::run_uninstrumented(app, node_, config);
    avg.cpu_energy += rapl_tool.stop().value();
    const auto rec = sacct.job_end();
    avg.job_energy += rec.consumed_energy.value();
    avg.time += rec.elapsed.value();
  }
  avg.job_energy /= options_.repeats;
  avg.cpu_energy /= options_.repeats;
  avg.time /= options_.repeats;
  return avg;
}

SavingsRow SavingsEvaluator::evaluate(const workload::Benchmark& app) {
  SavingsRow row;
  row.benchmark = app.name();
  const auto& spec = node_.spec();
  const SystemConfig default_config{spec.total_cores(), spec.default_core,
                                    spec.default_uncore};

  // 1. Default reference. All savings below divide by it, so a degenerate
  //    (zero-time or zero-energy) measurement must fail loudly here instead
  //    of producing NaN/Inf percentages downstream.
  const Measured def = measure_static(app, default_config);
  ensure(def.job_energy > 0 && def.cpu_energy > 0 && def.time > 0,
         "SavingsEvaluator::evaluate: default run of '" + app.name() +
             "' measured non-positive energy/time; savings undefined");

  // 2. Static tuning: exhaustive search, then re-measure at the optimum on
  //    the same node (paper Sec. V-D).
  baseline::StaticTuner static_tuner(node_, options_.static_search);
  row.static_config = static_tuner.tune(app).best;
  const Measured stat = measure_static(app, row.static_config);
  row.static_job_energy_pct = 100.0 * (1.0 - stat.job_energy / def.job_energy);
  row.static_cpu_energy_pct = 100.0 * (1.0 - stat.cpu_energy / def.cpu_energy);
  row.static_time_pct = 100.0 * (1.0 - stat.time / def.time);

  // 3. Dynamic tuning: DTA, then RRL production runs.
  DvfsUfsPlugin plugin(energy_model_, options_.plugin);
  row.dta = plugin.run_dta(app, node_);

  // Instrumentation for production: significant regions + phase only.
  auto filter = instr::InstrumentationFilter::instrument_all();
  for (const auto& r : app.regions()) {
    if (!row.dta.dyn_report.is_significant(r.name)) filter.exclude(r.name);
  }

  energymon::Sacct sacct(node_);
  energymon::Rapl rapl(node_);
  energymon::MeasureRapl rapl_tool(rapl);
  Measured dyn;
  double overhead_time = 0.0;
  long switches = 0;
  for (int r = 0; r < options_.repeats; ++r) {
    sacct.job_start(app.name() + "-rrl");
    rapl_tool.start();
    const auto rat = readex::run_with_rrl(app, node_, row.dta.tuning_model,
                                          filter, default_config);
    dyn.cpu_energy += rapl_tool.stop().value();
    const auto rec = sacct.job_end();
    dyn.job_energy += rec.consumed_energy.value();
    dyn.time += rec.elapsed.value();
    overhead_time += rat.switch_overhead.value() +
                     rat.run.instrumentation_overhead.value();
    switches += rat.switches;
  }
  dyn.job_energy /= options_.repeats;
  dyn.cpu_energy /= options_.repeats;
  dyn.time /= options_.repeats;
  overhead_time /= options_.repeats;
  row.dynamic_switches = switches / options_.repeats;

  row.dynamic_job_energy_pct =
      100.0 * (1.0 - dyn.job_energy / def.job_energy);
  row.dynamic_cpu_energy_pct =
      100.0 * (1.0 - dyn.cpu_energy / def.cpu_energy);
  row.dynamic_time_pct = 100.0 * (1.0 - dyn.time / def.time);
  // Decomposition: the configuration effect is the dynamic time change with
  // switching and instrumentation overhead removed.
  const double config_only_time = dyn.time - overhead_time;
  row.perf_reduction_config_pct =
      100.0 * (1.0 - config_only_time / def.time);
  row.overhead_pct = -100.0 * overhead_time / def.time;
  return row;
}

SavingsRow SavingsEvaluator::evaluate_keyed(
    const workload::Benchmark& app, const std::string& noise_key) const {
  const auto fingerprint = [&] {
    Fingerprint fp;
    fp.add_digest("node", node_.state_fingerprint())
        .add("repeats", options_.repeats)
        .add("plugin_config", options_.plugin.config.to_json().dump(-1))
        .add("engine.iterations_per_scenario",
             options_.plugin.engine.iterations_per_scenario)
        .add("engine.measurement_noise",
             options_.plugin.engine.measurement_noise)
        .add("engine.seed", options_.plugin.engine.seed)
        .add("static.cf_stride", options_.static_search.cf_stride)
        .add("static.ucf_stride", options_.static_search.ucf_stride)
        .add("static.phase_iterations",
             options_.static_search.phase_iterations)
        // The trained model determines the DTA's frequency recommendation,
        // so its full weight state is part of the row identity.
        .add("model", energy_model_.canonical_json());
    for (int t : options_.static_search.thread_counts)
      fp.add("static.thread_count", t);
    fp.add("noise_key", noise_key).add_digest("app", app.fingerprint_digest());
    return fp.digest();
  };
  return store::cached_row<SavingsRow>(
      options_.store, "savings/" + noise_key, "row", fingerprint, [&] {
        hwsim::NodeSimulator node = node_.clone(noise_key);
        const Seconds t0 = node.now();
        SavingsOptions row_options = options_;
        // Concurrent rows over one benchmark must not collide on the inner
        // static-search and DTA-engine task ids.
        row_options.static_search.key_scope = noise_key;
        row_options.plugin.engine.key_scope = noise_key;
        SavingsRow row =
            SavingsEvaluator(node, energy_model_, row_options).evaluate(app);
        return std::pair{std::move(row), node.now() - t0};
      });
}

std::vector<SavingsRow> SavingsEvaluator::evaluate_all(
    const std::vector<workload::Benchmark>& apps) const {
  // The "0" is the slot of a retired per-evaluator call counter, kept so
  // stores written with it stay valid.
  return parallel_map_ordered(
      apps.size(),
      [&](std::size_t i) {
        return evaluate_keyed(apps[i], "savings-0-" + std::to_string(i) +
                                           "-" + apps[i].name());
      },
      options_.jobs);
}

}  // namespace ecotune::core
