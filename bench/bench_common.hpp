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

}  // namespace ecotune::bench
