// Defining and tuning your own application.
//
// Downstream users describe their code as a phase loop over regions with
// kernel characteristics (instruction mix, memory traffic, scaling); the
// Session then tunes it exactly like the built-in suite. This example
// builds a small CFD-flavoured solver with one bandwidth-bound and two
// compute-bound regions, tunes it, and validates the result against the
// ground-truth optimum.
#include <iostream>

#include "api/session.hpp"
#include "instr/scorep_runtime.hpp"

using namespace ecotune;

namespace {

workload::Benchmark make_cfd_solver() {
  using hwsim::KernelTraits;

  // Flux computation: vectorized FP, cache friendly -> compute bound.
  KernelTraits flux;
  flux.total_instructions = 20e9;
  flux.ipc_peak = 2.4;
  flux.fp_fraction = 0.45;
  flux.vector_fraction = 0.5;
  flux.dram_bytes = 0.2 * flux.total_instructions;
  flux.uncore_cycles = 0.15 * flux.total_instructions;
  flux.parallel_fraction = 0.996;
  flux.contention = 0.003;
  flux.overlap = 0.8;
  flux.activity = 1.05;

  // Residual/update sweep: streaming -> bandwidth bound.
  KernelTraits sweep;
  sweep.total_instructions = 8e9;
  sweep.ipc_peak = 1.4;
  sweep.load_fraction = 0.4;
  sweep.store_fraction = 0.2;
  sweep.l1d_miss_rate = 0.12;
  sweep.l2_miss_rate = 0.6;
  sweep.dram_bytes = 2.6 * sweep.total_instructions;
  sweep.uncore_cycles = 0.5 * sweep.total_instructions;
  sweep.parallel_fraction = 0.99;
  sweep.contention = 0.008;
  sweep.overlap = 0.88;
  sweep.activity = 0.7;

  // Boundary conditions: small, branchy, serial-ish -> insignificant.
  KernelTraits bc;
  bc.total_instructions = 0.02e9;
  bc.branch_fraction = 0.2;
  bc.parallel_fraction = 0.85;
  bc.sync_seconds_per_thread = 2e-6;

  return workload::Benchmark(
      "my-cfd-solver", "user", workload::ProgrammingModel::kHybrid,
      {
          workload::Region{"compute_fluxes", flux, 1},
          workload::Region{"residual_sweep", sweep, 1},
          workload::Region{"apply_boundary_conditions", bc, 1},
      },
      /*phase_iterations=*/15,
      /*instr_overhead_fraction=*/0.015);
}

}  // namespace

int main() {
  api::Session session(api::SessionConfig{}.seed(7));

  std::cout << "Training the energy model on the standard suite...\n";
  session.train_model();

  // Tune the user-defined application. The model has never seen it; its
  // counter signature alone drives the frequency recommendation.
  const auto app = make_cfd_solver();
  const auto result = session.run_dta(app).result;

  std::cout << "\n" << app.name() << ": "
            << result.dyn_report.significant.size()
            << " significant regions, phase optimum "
            << to_string(result.phase_best) << "\n";
  for (const auto& [region, config] : result.region_best)
    std::cout << "  " << region << " -> " << to_string(config) << '\n';

  // Validate against the ground-truth static optimum (exhaustive search on
  // the same session's tuning node).
  const TuningOutcome truth = session.tune("static", app);
  std::cout << "\nground-truth static optimum: " << to_string(truth.best)
            << "\nplugin phase selection     : "
            << to_string(result.phase_best) << '\n';

  // How much energy does the plugin's choice leave on the table? Measured
  // on a private copy of the session's tuning node.
  hwsim::NodeSimulator node = session.tuning_node().clone();
  const auto at = [&](const SystemConfig& c) {
    return instr::run_uninstrumented(app.with_iterations(3), node, c)
        .node_energy.value();
  };
  const double regret =
      at(result.phase_best) / at(truth.best) - 1.0;
  std::cout << "energy regret vs ground truth: " << regret * 100.0
            << " %  (model-guided search used "
            << result.thread_scenarios + result.analysis_runs +
                   result.frequency_scenarios
            << " experiments instead of " << truth.app_runs << ")\n";
  return 0;
}
