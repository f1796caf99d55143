// Reproduces paper Figs. 6 and 7: the measured normalized-node-energy
// surface over all (CF, UCF) combinations for Lulesh (24 threads,
// compute-bound) and Mcbenchmark (20 threads, memory-bound), annotated with
// the measured optimum (paper: red), the configuration the tuning plugin's
// neural network selects (paper: yellow = '#') and all configurations
// within 2% of the optimum (paper: pink = '+').
#include <iomanip>
#include <iostream>

#include "api/session.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "instr/scorep_runtime.hpp"
#include "model/dataset.hpp"
#include "model/features.hpp"

using namespace ecotune;

namespace {

void heatmap(hwsim::NodeSimulator& node, const model::EnergyModel& trained,
             const std::string& bench_name, int threads,
             const std::string& figure) {
  const auto& spec = node.spec();
  const auto app = workload::BenchmarkSuite::by_name(bench_name)
                       .with_iterations(2);

  // Measured surface (ground truth through the uninstrumented run path).
  const auto cal = instr::run_uninstrumented(
      app, node,
      SystemConfig{threads, spec.calibration_core, spec.calibration_uncore});
  const double e_cal = cal.node_energy.value();

  const auto cfs = spec.core_grid.values();
  const auto ucfs = spec.uncore_grid.values();
  std::vector<std::vector<double>> surface(cfs.size());
  double best = 1e300;
  std::size_t best_ci = 0, best_ui = 0;
  for (std::size_t ci = 0; ci < cfs.size(); ++ci) {
    for (std::size_t ui = 0; ui < ucfs.size(); ++ui) {
      const auto run = instr::run_uninstrumented(
          app, node, SystemConfig{threads, cfs[ci], ucfs[ui]});
      const double e = run.node_energy.value() / e_cal;
      surface[ci].push_back(e);
      if (e < best) {
        best = e;
        best_ci = ci;
        best_ui = ui;
      }
    }
  }

  // Plugin (model) selection from the counter rates at calibration.
  model::AcquisitionOptions acq_opts;
  acq_opts.phase_iterations = 2;
  model::DataAcquisition acq(node, acq_opts);
  const auto rates =
      acq.collect_counter_rates(app, threads, model::paper_feature_events());
  const auto rec = trained.recommend(rates, spec);

  std::cout << "--- " << figure << ": " << bench_name << ", " << threads
            << " OpenMP threads ---\n"
            << "cells: normalized node energy E(cf,ucf)/E(2.0|1.5); "
               "markers: *=optimum, #=model pick, +=within 2%\n\n";

  TextTable table;
  std::vector<std::string> header{"CF\\UCF"};
  for (auto u : ucfs) header.push_back(TextTable::num(u.as_ghz(), 1));
  table.header(header);
  for (std::size_t ci = cfs.size(); ci-- > 0;) {  // high CF on top
    std::vector<std::string> row{TextTable::num(cfs[ci].as_ghz(), 1)};
    for (std::size_t ui = 0; ui < ucfs.size(); ++ui) {
      std::string cell = TextTable::num(surface[ci][ui], 3);
      if (ci == best_ci && ui == best_ui) {
        cell += "*";
      } else if (cfs[ci] == rec.cf && ucfs[ui] == rec.ucf) {
        cell += "#";
      } else if (surface[ci][ui] <= best * 1.02) {
        cell += "+";
      }
      row.push_back(cell);
    }
    table.row(row);
  }
  table.print(std::cout);

  std::cout << "measured optimum  : " << to_string(cfs[best_ci]) << '|'
            << to_string(ucfs[best_ui]) << "  (Enorm "
            << TextTable::num(best, 3) << ")\n"
            << "model selection   : " << to_string(rec.cf) << '|'
            << to_string(rec.ucf) << "  (measured Enorm "
            << TextTable::num(
                   surface[spec.core_grid.index_of(rec.cf)]
                          [spec.uncore_grid.index_of(rec.ucf)],
                   3)
            << ", predicted "
            << TextTable::num(rec.predicted_normalized_energy, 3) << ")\n";
  const double regret =
      surface[spec.core_grid.index_of(rec.cf)]
             [spec.uncore_grid.index_of(rec.ucf)] /
          best -
      1.0;
  std::cout << "selection regret  : " << TextTable::pct(100 * regret, 2)
            << " above the optimum (paper: selections within a few % are "
               "still energy-saving)\n\n";
}

}  // namespace

int main() {
  bench::banner(
      "Figs. 6 and 7 -- Normalized-energy heatmaps and model selection",
      "Lulesh @ 24 threads (Fig. 6, compute-bound: paper best 2.4|1.7, "
      "plugin 2.5|2.1)\nand Mcbenchmark @ 20 threads (Fig. 7, memory-bound: "
      "paper best 1.6|2.5, plugin 1.6|2.3)");

  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(0x6F16));
  node.set_jitter(0.0);  // surfaces are plotted noise-free, as in Fig. 6

  std::cout << "Training the final energy model (14 training benchmarks, 10 "
               "epochs)...\n\n";
  const model::EnergyModel trained =
      api::Session(api::SessionConfig{}.train_seed(0x6F17)).train_model();

  heatmap(node, trained, "Lulesh", 24, "Fig. 6");
  heatmap(node, trained, "Mcb", 20, "Fig. 7");
  return 0;
}
