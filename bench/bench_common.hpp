#pragma once

#include <iostream>
#include <string>

#include "hwsim/cluster.hpp"
#include "model/dataset.hpp"
#include "model/energy_model.hpp"
#include "workload/suite.hpp"

namespace ecotune::bench {

/// Prints a banner identifying the reproduced paper artifact.
void banner(const std::string& title, const std::string& paper_reference);

/// Shared CLI of the cache-aware drivers: `--jobs N` plus the measurement
/// store flags `--cache-dir DIR` and `--cache-mode rw|ro|off`. The cache
/// mode is kept as raw text; resolution (and the exit-2 error path) happens
/// once, inside api::open_session_or_exit, when the driver opens its
/// Session.
struct DriverOptions {
  int jobs = 1;  ///< already resolved (never 0)
  std::string cache_dir;
  std::string cache_mode;  ///< raw --cache-mode text (empty = default)
};

/// Parses DriverOptions; exits with usage on unknown arguments or a bad
/// value, so every table/fig driver gets a uniform CLI for free. Numeric
/// flags go through cli::parse_strict_int: "--jobs ten" fails loudly here
/// exactly as it does in ecotune_dta.
[[nodiscard]] DriverOptions parse_driver_options(int argc, char** argv);

/// --tuner mode of the strategy-aware drivers: one or more registered
/// strategy names (user order, repeatable) plus the objective they
/// optimize. An empty `tuners` list means the driver's classic default
/// mode, whose stdout stays byte-identical.
struct TunerSelection {
  std::vector<std::string> tuners;
  std::string objective = "energy";
};

/// parse_driver_options plus the strategy flags `--tuner NAME`
/// (repeatable) and `--objective NAME`. Unknown names exit 2 and list the
/// registered vocabulary (tuners::default_registry / ptf::objective_names).
[[nodiscard]] DriverOptions parse_driver_options(int argc, char** argv,
                                                 TunerSelection& selection);

/// Synthetic standardized dataset shaped like the acquired training set
/// (9 N(0,1) features, labels in [0.5, 1.5), fixed seed). Shared by the
/// perf tools (tools/perf_report, bench/micro_components) so their
/// train-epoch workloads stay comparable across the BENCH_*.json
/// trajectory.
void synthetic_training_data(std::size_t samples, stats::Matrix& x,
                             std::vector<double>& y);

/// EnergyModel assembled from `members` untrained (He-initialized,
/// fixed-seed) ensemble members behind an identity scaler. Inference cost
/// does not depend on the weight values, so the perf tools use this to
/// benchmark the grid-recommendation path without paying for training.
[[nodiscard]] model::EnergyModel untrained_ensemble_model(int members);

/// 252-row (14x18 grid) random 9-feature batch, fixed seed — the
/// forward-batch microbench input of both perf tools.
[[nodiscard]] stats::Matrix synthetic_grid_batch();

/// Paper-counter rate map (1e8 counts/s each) — the grid-recommend
/// microbench input of both perf tools.
[[nodiscard]] std::map<std::string, double> synthetic_counter_rates();

}  // namespace ecotune::bench
