// Extension (paper Sec. VI future work): "investigate the application of
// the model based approach to individual significant regions. By that
// regions with a very different best configuration could be identified,
// e.g., IO regions."
//
// Compares phase-level prediction (the published plugin) against per-region
// prediction on an application with strongly heterogeneous regions,
// including an I/O-like checkpoint region whose optimum sits in a corner of
// the frequency space that no phase-level compromise can reach.
#include <iostream>

#include "api/session.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/evaluation.hpp"

using namespace ecotune;

namespace {

workload::Benchmark make_heterogeneous_app() {
  using hwsim::KernelTraits;

  KernelTraits solver;  // dense compute: wants high CF, low UCF
  solver.total_instructions = 22e9;
  solver.ipc_peak = 2.4;
  solver.fp_fraction = 0.45;
  solver.vector_fraction = 0.5;
  solver.dram_bytes = 0.1 * solver.total_instructions;
  solver.uncore_cycles = 0.08 * solver.total_instructions;
  solver.parallel_fraction = 0.997;
  solver.contention = 0.002;
  solver.activity = 1.0;

  KernelTraits exchange;  // halo exchange: wants high UCF, low CF
  exchange.total_instructions = 8e9;
  exchange.ipc_peak = 1.3;
  exchange.load_fraction = 0.4;
  exchange.l1d_miss_rate = 0.13;
  exchange.dram_bytes = 3.2 * exchange.total_instructions;
  exchange.uncore_cycles = 0.6 * exchange.total_instructions;
  exchange.parallel_fraction = 0.99;
  exchange.contention = 0.008;
  exchange.overlap = 0.9;
  exchange.activity = 0.62;

  KernelTraits checkpoint;  // I/O-like: stalled, low activity; the paper's
                            // motivating example for per-region prediction
  checkpoint.total_instructions = 3e9;
  checkpoint.ipc_peak = 0.5;
  checkpoint.branch_fraction = 0.2;
  checkpoint.dram_bytes = 0.8 * checkpoint.total_instructions;
  checkpoint.uncore_cycles = 0.3 * checkpoint.total_instructions;
  checkpoint.parallel_fraction = 0.75;
  checkpoint.contention = 0.015;
  checkpoint.overlap = 0.5;
  checkpoint.activity = 0.3;

  return workload::Benchmark(
      "het-app", "user", workload::ProgrammingModel::kHybrid,
      {workload::Region{"implicit_solver", solver, 1},
       workload::Region{"halo_exchange", exchange, 1},
       workload::Region{"checkpoint_io", checkpoint, 1}},
      12, 0.015);
}

}  // namespace

int main() {
  bench::banner("Ablation -- per-region model-based prediction (Sec. VI)",
                "phase-level vs per-region frequency prediction on a "
                "heterogeneous application");

  std::cout << "Training the final energy model...\n";
  const model::EnergyModel trained =
      api::Session(api::SessionConfig{}.train_seed(0xAB30)).train_model();

  const auto app = make_heterogeneous_app();

  TextTable table("Phase-level vs per-region prediction (het-app)");
  table.header({"mode", "analysis runs", "freq scenarios", "dyn CPU savings",
                "dyn job savings", "dyn time"});

  core::DtaResult dta_results[2];
  for (int per_region = 0; per_region <= 1; ++per_region) {
    hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(0xAB31));
    node.set_jitter(0.002);
    core::SavingsOptions opts;
    opts.repeats = 3;
    opts.plugin.config.per_region_prediction = per_region == 1;
    opts.static_search.cf_stride = 2;
    opts.static_search.ucf_stride = 2;
    core::SavingsEvaluator evaluator(node, trained, opts);
    const auto row = evaluator.evaluate(app);
    dta_results[per_region] = row.dta;
    table.row({per_region ? "per-region" : "phase-level",
               std::to_string(row.dta.analysis_runs),
               std::to_string(row.dta.frequency_scenarios),
               TextTable::pct(row.dynamic_cpu_energy_pct),
               TextTable::pct(row.dynamic_job_energy_pct),
               TextTable::pct(row.dynamic_time_pct)});
  }
  table.print(std::cout);

  std::cout << "\nPer-region recommendations (mode 2):\n";
  for (const auto& [region, rec] : dta_results[1].region_recommendations) {
    std::cout << "  " << region << " -> " << to_string(rec.cf) << '|'
              << to_string(rec.ucf) << "  (predicted Enorm "
              << TextTable::num(rec.predicted_normalized_energy, 3) << ")\n";
  }
  std::cout << "phase-level recommendation: "
            << to_string(dta_results[0].recommendation.cf) << '|'
            << to_string(dta_results[0].recommendation.ucf) << '\n';

  std::cout << "\nRegion configurations in the tuning models:\n";
  for (int m = 0; m <= 1; ++m) {
    std::cout << (m ? "  per-region : " : "  phase-level: ");
    for (const auto& s : dta_results[m].tuning_model.scenarios())
      std::cout << '[' << to_string(s.config) << " x" << s.regions.size()
                << "] ";
    std::cout << '\n';
  }
  std::cout << "\nThe per-region mode spends extra analysis runs and a "
               "larger verification space to\nreach region optima a single "
               "phase-level neighborhood cannot cover.\n";
  return 0;
}
