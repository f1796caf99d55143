// Reproduces the paper's Sec. V-C tuning-time analysis: the model-based
// plugin needs (k + analysis + 9) experiments -- evaluable within single
// application runs by exploiting progressive phase iterations -- while the
// exhaustive approach of Sourouri et al. [7] needs n x k x l x m full
// application runs. Both are measured on the simulator, alongside the
// paper's closed-form accounting.
#include <iostream>

#include "api/session.hpp"
#include "bench_common.hpp"
#include "baseline/exhaustive_tuner.hpp"
#include "common/table.hpp"
#include "instr/scorep_runtime.hpp"

using namespace ecotune;

int main(int argc, char** argv) {
  bench::TunerSelection selection;
  const auto driver_opts = bench::parse_driver_options(argc, argv, selection);
  auto session = api::open_session_or_exit(
      api::SessionConfig{}
          .train_seed(0x77C0)
          .tuning_seed(0x77C1)
          .tuning_node_id(0)
          .jobs(driver_opts.jobs)
          .cache(driver_opts.cache_dir, driver_opts.cache_mode)
          .scope("tuning_time"));
  const int jobs = session->jobs();
  bench::banner("Sec. V-C -- Tuning-time comparison",
                "model-based plugin (k+1+9 experiments) vs exhaustive "
                "search (n x k x l x m runs)");

  // --tuner mode: run each requested strategy through the common Tuner
  // seam and tabulate its acquisition cost side by side. The classic
  // paper tables below are untouched (and byte-identical) without the
  // flag. Strategies that need the energy model train it lazily inside
  // Session::tune, so governor/qlearn rows never pay for training.
  if (!selection.tuners.empty()) {
    const auto app =
        workload::BenchmarkSuite::by_name("Mcb").with_iterations(14);
    TextTable table("Strategy comparison (Mcbenchmark workload, " +
                    selection.objective + " objective)");
    table.header({"strategy", "scenarios", "app runs",
                  "simulated tuning time", "best configuration"});
    for (const auto& name : selection.tuners) {
      const TuningOutcome outcome =
          session->tune(name, app, selection.objective);
      table.row({outcome.tuner, std::to_string(outcome.scenarios_evaluated),
                 std::to_string(outcome.app_runs),
                 TextTable::num(outcome.tuning_time.value(), 2) + " s",
                 to_string(outcome.best)});
    }
    table.print(std::cout);
    session->print_store_summary();
    return 0;
  }

  std::cout << "Training the final energy model...\n";
  session->train_model();

  // The plugin and then the exhaustive baseline measure in sequence on one
  // copy of the tuning node.
  hwsim::NodeSimulator node = session->tuning_node().clone();
  const auto& spec = node.spec();

  TextTable table("Tuning time: ours vs exhaustive (Mcbenchmark workload)");
  table.header({"approach", "experiments", "app runs", "simulated tuning time",
                "speedup"});

  const auto app = workload::BenchmarkSuite::by_name("Mcb").with_iterations(14);

  // One full application run at the default configuration = t.
  {
    hwsim::NodeSimulator probe(hwsim::haswell_ep_spec(), 0, Rng(0x77C2));
    probe.set_jitter(0.0);
    const auto run = instr::run_uninstrumented(
        app, probe,
        SystemConfig{24, spec.default_core, spec.default_uncore});
    std::cout << "one application run t = "
              << TextTable::num(run.wall_time.value(), 2) << " s ("
              << app.phase_iterations() << " phase iterations)\n\n";
  }

  // --- Our plugin -------------------------------------------------------
  const core::DtaResult dta = session->run_dta(app, node).result;
  const int ours_experiments =
      dta.thread_scenarios + dta.analysis_runs + dta.frequency_scenarios;
  const double ours_time = dta.tuning_time.value();
  table.row({"model-based plugin (ours)",
             std::to_string(dta.thread_scenarios) + " + " +
                 std::to_string(dta.analysis_runs) + " + " +
                 std::to_string(dta.frequency_scenarios) + " = " +
                 std::to_string(ours_experiments),
             std::to_string(dta.app_runs),
             TextTable::num(ours_time, 2) + " s", "1.0x"});

  // --- Exhaustive baseline (coarsened grid, extrapolated to full) -------
  baseline::ExhaustiveTunerOptions ex_opts;
  ex_opts.cf_stride = 2;   // run a quarter of the grid, extrapolate cost
  ex_opts.ucf_stride = 2;
  ex_opts.jobs = jobs;
  ex_opts.store = &session->store();
  baseline::ExhaustiveTuner exhaustive(node, ex_opts);
  const auto ex = exhaustive.tune(app);
  const double grid_scale =
      static_cast<double>(spec.core_grid.size() * spec.uncore_grid.size()) /
      static_cast<double>(ex.runs / 4);  // 4 thread settings ran
  const double ex_measured_full = ex.search_time.value() * grid_scale;
  table.row({"exhaustive sweep (1 run per config)",
             std::to_string(4 * spec.core_grid.size() *
                            spec.uncore_grid.size()),
             std::to_string(static_cast<long>(
                 4 * spec.core_grid.size() * spec.uncore_grid.size())),
             TextTable::num(ex_measured_full, 1) + " s (extrapolated)",
             TextTable::num(ex_measured_full / ours_time, 1) + "x slower"});

  // --- Paper's formula for Sourouri et al. [7] --------------------------
  const double n = 5, k = 4, l = spec.core_grid.size(),
               m = spec.uncore_grid.size();
  const double formula_runs = n * k * l * m;
  const double t_run = ex.formula_time.value() / ex.formula_runs;
  table.row({"Sourouri et al. [7]: n*k*l*m*t",
             TextTable::num(formula_runs, 0),
             TextTable::num(formula_runs, 0),
             TextTable::num(formula_runs * t_run, 1) + " s (formula)",
             TextTable::num(formula_runs * t_run / ours_time, 1) +
                 "x slower"});
  table.print(std::cout);

  std::cout << "\nPaper accounting for Mcbenchmark: exhaustive n*k*l*m*t = 5"
            << "*" << k << "*" << l << "*" << m << "*t = "
            << TextTable::num(formula_runs, 0)
            << "t vs ours (k+1+9)t = 14t; exploiting phase iterations, our "
               "experiments\nshare application runs (here "
            << dta.app_runs << " runs in total, incl. profiling and "
            << dta.analysis_runs << " counter-collection runs).\n";

  // Quality check: the plugin's reduced search still lands near the
  // exhaustive optimum.
  std::cout << "\nexhaustive app-level optimum (coarse grid): "
            << to_string(ex.app_best) << '\n'
            << "plugin phase best                        : "
            << to_string(dta.phase_best) << '\n';
  session->print_store_summary();
  return 0;
}
