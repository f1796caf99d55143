#pragma once

#include <string>

#include "baseline/static_tuner.hpp"
#include "core/dvfs_ufs_plugin.hpp"
#include "hwsim/node.hpp"
#include "model/energy_model.hpp"
#include "workload/benchmark.hpp"

namespace ecotune::store {
class MeasurementStore;
}

namespace ecotune::core {

/// One row of the paper's Table VI: static and dynamic tuning savings
/// relative to the default configuration (positive = savings; time/
/// performance columns are negative when tuning slows the run down).
struct SavingsRow {
  std::string benchmark;

  SystemConfig static_config;             ///< Table V column
  double static_job_energy_pct = 0.0;     ///< sacct node energy
  double static_cpu_energy_pct = 0.0;     ///< measure-rapl CPU energy
  double static_time_pct = 0.0;

  double dynamic_job_energy_pct = 0.0;
  double dynamic_cpu_energy_pct = 0.0;
  double dynamic_time_pct = 0.0;
  /// Time change attributable purely to running regions at tuned
  /// configurations (Table VI "performance reduction config setting").
  double perf_reduction_config_pct = 0.0;
  /// Time change attributable to DVFS/UFS switching + Score-P probes
  /// (Table VI "overhead DVFS/UFS/Score-P").
  double overhead_pct = 0.0;

  long dynamic_switches = 0;
  DtaResult dta;  ///< the design-time analysis behind the dynamic numbers

  /// Exact JSON round trip (doubles preserved bitwise) for the measurement
  /// store's per-benchmark row cache.
  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static SavingsRow from_json(const Json& j);
};

/// Options of the evaluation protocol.
struct SavingsOptions {
  /// Runs to average per measurement (paper: "averaged over five runs").
  int repeats = 5;
  /// Static-search configuration (full grid by default).
  baseline::StaticTunerOptions static_search;
  /// DTA plugin options.
  DvfsUfsPlugin::Options plugin;
  /// Concurrent per-benchmark rows in evaluate_all(), each on its own node
  /// clone (1 = serial, 0 = hardware concurrency). Row output is identical
  /// for any value.
  int jobs = 1;
  /// Optional persistent measurement store (not owned). evaluate_keyed()
  /// answers whole benchmark rows from a previous session when benchmark,
  /// protocol options, trained model, and node-state fingerprint match; the
  /// constructor also threads the store into the inner static search and
  /// DTA engine so even a cold row reuses cached sweeps. Jobs-invariant.
  store::MeasurementStore* store = nullptr;
};

/// Reproduces the paper's Sec. V-D measurement protocol on one node:
///  1. default run (uninstrumented, 24 threads, 2.5|3.0 GHz),
///  2. best static configuration (Table V search) and its savings,
///  3. full DTA with the tuning plugin, then a production run under RRL,
///     with the time loss decomposed into configuration effect and
///     switching/instrumentation overhead.
/// Job energy comes from simulated sacct, CPU energy from measure-rapl.
class SavingsEvaluator {
 public:
  SavingsEvaluator(hwsim::NodeSimulator& node,
                   const model::EnergyModel& energy_model,
                   SavingsOptions options = {});

  /// Runs the protocol for `app` on the node itself, advancing its clock.
  [[nodiscard]] SavingsRow evaluate(const workload::Benchmark& app);

  /// Runs the protocol for `app` on a clone of the node whose noise stream
  /// is forked by `noise_key`, with the inner store entries namespaced by
  /// it. The whole row is one store entry. Never touches the node itself,
  /// so the row is a pure function of (node state, options, model, app,
  /// key).
  [[nodiscard]] SavingsRow evaluate_keyed(const workload::Benchmark& app,
                                          const std::string& noise_key) const;

  /// Evaluates one row per benchmark, row i being
  /// evaluate_keyed(apps[i], "savings-0-<i>-<name>"), rows concurrently.
  /// Row order matches `apps`; output is identical for any `jobs` value.
  [[nodiscard]] std::vector<SavingsRow> evaluate_all(
      const std::vector<workload::Benchmark>& apps) const;

 private:
  struct Measured {
    double job_energy = 0.0;
    double cpu_energy = 0.0;
    double time = 0.0;
  };
  /// Averaged uninstrumented run at `config`.
  Measured measure_static(const workload::Benchmark& app,
                          const SystemConfig& config);

  hwsim::NodeSimulator& node_;
  const model::EnergyModel& energy_model_;
  SavingsOptions options_;
};

}  // namespace ecotune::core
