// Tuning a memory-bound application (the paper's Mcbenchmark scenario).
//
// Memory-bound codes invert the usual DVFS intuition: the core clock can
// drop far below nominal (saving core power) while the uncore clock must
// stay high (bandwidth feeds the cores). This example shows
//  - the measured energy surface along both frequency axes,
//  - what the plugin selects and what it saves,
//  - how the picture changes under the EDP objective, which penalizes the
//    slowdown that pure energy tuning accepts -- demonstrating model reuse:
//    the second Session borrows the first one's trained model instead of
//    re-acquiring and re-training.
#include <iostream>

#include "api/session.hpp"
#include "instr/scorep_runtime.hpp"

using namespace ecotune;

int main() {
  baseline::StaticTunerOptions coarse_search;
  coarse_search.cf_stride = 2;
  coarse_search.ucf_stride = 2;

  api::Session session(api::SessionConfig{}
                           .seed(11)
                           .repeats(3)
                           .static_search(coarse_search));

  std::cout << "Training the energy model...\n";
  session.train_model();

  const auto app = workload::BenchmarkSuite::by_name("Mcb").with_iterations(10);

  // Show the two 1-D slices through the energy surface at 20 threads,
  // measured on a private copy of the session's tuning node.
  hwsim::NodeSimulator node = session.tuning_node().clone();
  std::cout << "\nnode energy vs core frequency (UCF = 2.5 GHz, 20 thr):\n";
  for (int mhz = 1200; mhz <= 2500; mhz += 300) {
    const auto e = instr::run_uninstrumented(
                       app.with_iterations(2), node,
                       SystemConfig{20, CoreFreq::mhz(mhz),
                                    UncoreFreq::mhz(2500)})
                       .node_energy.value();
    std::cout << "  " << mhz / 1000.0 << " GHz : " << e << " J\n";
  }
  std::cout << "node energy vs uncore frequency (CF = 1.8 GHz, 20 thr):\n";
  for (int mhz = 1300; mhz <= 3000; mhz += 400) {
    const auto e = instr::run_uninstrumented(
                       app.with_iterations(2), node,
                       SystemConfig{20, CoreFreq::mhz(1800),
                                    UncoreFreq::mhz(mhz)})
                       .node_energy.value();
    std::cout << "  " << mhz / 1000.0 << " GHz : " << e << " J\n";
  }

  // Full pipeline under the energy objective.
  const core::SavingsRow row = session.evaluate_savings(app);

  std::cout << "\n--- energy objective ---\n"
            << "static optimum : " << to_string(row.static_config)
            << "  (job " << row.static_job_energy_pct << "%, CPU "
            << row.static_cpu_energy_pct << "%)\n"
            << "dynamic tuning : job " << row.dynamic_job_energy_pct
            << "%, CPU " << row.dynamic_cpu_energy_pct << "%, time "
            << row.dynamic_time_pct << "%\n"
            << "  (config effect " << row.perf_reduction_config_pct
            << "%, overhead " << row.overhead_pct << "%)\n";

  // The same pipeline under EDP: less slowdown, less savings. The EDP
  // session reuses the already-trained model -- no second acquisition.
  api::Session edp_session(api::SessionConfig{}
                               .seed(11)
                               .repeats(3)
                               .static_search(coarse_search)
                               .objective("edp"));
  edp_session.use_model(session.model());
  const core::SavingsRow edp_row = edp_session.evaluate_savings(app);
  std::cout << "\n--- EDP objective ---\n"
            << "dynamic tuning : job " << edp_row.dynamic_job_energy_pct
            << "%, CPU " << edp_row.dynamic_cpu_energy_pct << "%, time "
            << edp_row.dynamic_time_pct << "%\n";

  std::cout << "\nPhase best under energy: " << to_string(row.dta.phase_best)
            << " vs under EDP: " << to_string(edp_row.dta.phase_best)
            << "\n(EDP keeps the core clock higher to protect run time.)\n";
  return 0;
}
