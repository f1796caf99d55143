// Reproduces paper Tables III and IV: the optimal configuration the tuning
// plugin finds for every significant region of Lulesh and Mcbenchmark --
// the full design-time analysis (pre-processing, exhaustive OpenMP-thread
// step, model-based frequency prediction, 3x3 neighborhood verification).
// Thin shim over api::Session: one trained model, the two DTAs in sequence
// on one copy of the session's tuning node.
#include <iostream>

#include "api/session.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"

using namespace ecotune;

namespace {

void tune_and_print(api::Session& session, hwsim::NodeSimulator& node,
                    const std::string& bench_name, const std::string& title,
                    const std::string& paper_note) {
  const auto app = workload::BenchmarkSuite::by_name(bench_name)
                       .with_iterations(12);
  const api::DtaReport report = session.run_dta(app, node);
  const core::DtaResult& result = report.result;

  std::cout << "--- " << title << ": " << bench_name << " ---\n"
            << "significant regions      : "
            << result.dyn_report.significant.size() << " (threshold "
            << result.dyn_report.threshold.value() * 1e3 << " ms)\n"
            << "autofiltered regions     : "
            << result.autofilter.excluded.size() << '\n'
            << "phase thread optimum     : " << result.phase_threads << '\n'
            << "model recommendation     : " << to_string(result.recommendation.cf)
            << '|' << to_string(result.recommendation.ucf)
            << "  (predicted Enorm "
            << TextTable::num(result.recommendation.predicted_normalized_energy, 3)
            << ")\n"
            << "phase best (verified)    : " << to_string(result.phase_best)
            << "\n\n";

  TextTable table(title + ": best found configuration per significant region");
  table.header({"Region", "OpenMP threads", "CF (GHz)", "UCF (GHz)"});
  for (const auto& sig : result.dyn_report.significant) {
    const auto it = result.region_best.find(sig.name);
    if (it == result.region_best.end()) continue;
    table.row({sig.name, std::to_string(it->second.threads),
               TextTable::num(it->second.core.as_ghz(), 2),
               TextTable::num(it->second.uncore.as_ghz(), 2)});
  }
  table.print(std::cout);
  std::cout << paper_note << '\n'
            << "tuning model scenarios   : "
            << result.tuning_model.scenarios().size() << " (regions with "
            << "equal configurations share a scenario)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto driver_opts = bench::parse_driver_options(argc, argv);
  auto session = api::open_session_or_exit(
      api::SessionConfig{}
          .train_seed(0x7AB4)
          .tuning_seed(0x7AB3)
          .tuning_node_id(0)
          .jobs(driver_opts.jobs)
          .cache(driver_opts.cache_dir, driver_opts.cache_mode)
          .scope("table3_table4"));
  bench::banner("Tables III and IV -- Region-level tuning results",
                "full DTA of the DVFS/UFS/OpenMP plugin on Lulesh and "
                "Mcbenchmark (Sec. V-C)");

  std::cout << "Training the final energy model...\n";
  session->train_model();

  // Mcb is tuned on the node Lulesh's analysis left behind, as one
  // experiment sequence.
  hwsim::NodeSimulator node = session->tuning_node().clone();
  tune_and_print(*session, node, "Lulesh", "Table III",
                 "(paper Table III: 5 regions, threads 20-24, CF 2.40-2.50, "
                 "UCF 2.00 --\nregion configs are clamped to the verified "
                 "neighborhood of the phase optimum)");
  tune_and_print(*session, node, "Mcb", "Table IV",
                 "(paper Table IV: 5 regions, threads 20-24, CF 1.60-1.70, "
                 "UCF 2.20-2.30 --\nmemory-bound: low core frequency, high "
                 "uncore frequency)");
  session->print_store_summary();
  return 0;
}
