#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/fingerprint.hpp"
#include "common/units.hpp"
#include "hwsim/cluster.hpp"
#include "stats/linalg.hpp"
#include "workload/benchmark.hpp"

namespace ecotune::store {
class MeasurementStore;
}

namespace ecotune::model {

/// One training/validation sample: features at one (CF, UCF) operating point
/// of one benchmark run, labelled with normalized energy (and normalized
/// power/time for the regression baseline).
struct EnergySample {
  std::string benchmark;
  int threads = 24;
  CoreFreq cf;
  UncoreFreq ucf;
  std::vector<double> features;   ///< counter rates + cf_ghz + ucf_ghz
  double normalized_energy = 1.0; ///< E(cf,ucf) / E(calibration)
  double normalized_power = 1.0;  ///< P(cf,ucf) / P(calibration)
  double normalized_time = 1.0;   ///< T(cf,ucf) / T(calibration)
};

/// The acquired dataset (paper Sec. IV-A pipeline output).
struct EnergyDataset {
  std::vector<std::string> feature_names;
  std::vector<EnergySample> samples;

  [[nodiscard]] stats::Matrix feature_matrix() const;
  [[nodiscard]] std::vector<double> labels() const;
  [[nodiscard]] std::vector<std::string> groups() const;
  /// FNV-1a over the bytes of each sample's features and label, in sample
  /// order: a digest of exactly what EnergyModel::train consumes.
  [[nodiscard]] std::uint64_t training_digest() const;
  /// Subset by sample indices.
  [[nodiscard]] EnergyDataset subset(
      const std::vector<std::size_t>& idx) const;
};

/// All-preset counter survey used for the counter-selection experiment
/// (Table I): one row per (benchmark, thread-count) run at the calibration
/// frequencies; 56 counter-rate columns; node power as dependent variable.
struct CounterSurvey {
  std::vector<std::string> benchmark;       ///< row labels
  stats::Matrix rates;                      ///< rows x 56
  std::vector<double> mean_node_power;      ///< dependent variable (W)
};

/// Knobs of the acquisition pipeline. Defaults match the paper: thread
/// counts 12..24 step 4, the full CF x UCF grid, counters measured at the
/// calibration frequencies with 4-counter multiplexed runs.
struct AcquisitionOptions {
  std::vector<int> thread_counts{12, 16, 20, 24};
  /// Stride over the frequency grids (1 = every supported frequency).
  int cf_stride = 1;
  int ucf_stride = 1;
  /// Acquisition runs use shortened phase loops (the paper exploits
  /// progressive phase iterations the same way).
  int phase_iterations = 2;
  /// Counter-read noise level.
  double counter_noise = 0.005;
  std::uint64_t seed = 0xACC5EEDULL;
  /// Concurrent per-benchmark sweeps in acquire(), each on its own node
  /// clone (1 = serial, 0 = hardware concurrency). The dataset is identical
  /// for any value: noise streams are keyed by benchmark, samples merged in
  /// benchmark order.
  int jobs = 1;
  /// Optional persistent measurement store (not owned): acquire() answers a
  /// whole per-benchmark sweep from a previous session when benchmark,
  /// acquisition options, and node-state fingerprint match. Jobs-invariant.
  store::MeasurementStore* store = nullptr;
};

/// What acquire(benchmarks) yields besides its samples, and all a caller
/// that already holds a model trained on them needs: the dataset's
/// training_digest() and size, and each sweep's cost. With it, replay()
/// advances the node as the acquisition did without decoding any sweep.
struct AcquisitionSummary {
  std::uint64_t training_digest = 0;
  std::size_t samples = 0;
  /// One per benchmark, in acquire() order.
  struct Sweep {
    long runs = 0;
    Seconds elapsed{0};
  };
  std::vector<Sweep> sweeps;
};

/// Executes the Sec. IV-A data-acquisition pipeline on a simulated node:
/// Score-P-instrumented runs produce OTF2 traces; the post-processor
/// extracts whole-run energies and per-phase-instance counter rates; labels
/// are normalized at the calibration operating point.
class DataAcquisition {
 public:
  DataAcquisition(hwsim::NodeSimulator& node, AcquisitionOptions options = {});

  /// Full dataset over all benchmarks (model features only: paper's 7
  /// counters + frequencies).
  [[nodiscard]] EnergyDataset acquire(
      const std::vector<workload::Benchmark>& benchmarks);

  /// The summary of the next acquire(benchmarks). With a store it is one
  /// entry, `acquire/summary-<call>`, keyed by the fingerprints of every
  /// sweep that call would look up. A hit decodes no sweep and advances
  /// nothing: follow it with replay(summary), or with acquire(benchmarks)
  /// when the samples are needed after all. A miss, or an undecodable entry,
  /// runs acquire(benchmarks) and moves its dataset into `acquired`.
  [[nodiscard]] AcquisitionSummary summarize(
      const std::vector<workload::Benchmark>& benchmarks,
      std::optional<EnergyDataset>& acquired);

  /// Advances the node's clock and runs_performed() exactly as the
  /// acquire() that `summary` summarizes did, without running any sweep.
  void replay(const AcquisitionSummary& summary);

  /// Counter rates for one benchmark at the calibration point, collected
  /// with multiplexed event sets over repeated runs.
  [[nodiscard]] std::map<std::string, double> collect_counter_rates(
      const workload::Benchmark& benchmark, int threads,
      const std::vector<hwsim::PmuEvent>& events);

  /// Per-region counter rates (counts per second of region time) at the
  /// calibration point, for the per-region model-based tuning extension
  /// (paper Sec. VI outlook). Keys: region name -> counter name -> rate.
  [[nodiscard]] std::map<std::string, std::map<std::string, double>>
  collect_region_counter_rates(const workload::Benchmark& benchmark,
                               int threads,
                               const std::vector<hwsim::PmuEvent>& events);

  /// All-56-counter survey for the selection experiment (Table I).
  [[nodiscard]] CounterSurvey survey_counters(
      const std::vector<workload::Benchmark>& benchmarks);

  /// Number of simulated application runs performed so far.
  [[nodiscard]] long runs_performed() const { return runs_; }

 private:
  struct SweepPoint {
    Joules energy{0};
    Seconds time{0};
  };
  /// One traced run at a fixed configuration; returns whole-run energy/time
  /// extracted from the trace.
  SweepPoint traced_run(const workload::Benchmark& benchmark,
                        const SystemConfig& config);
  /// The full (threads x CF x UCF) sweep of one benchmark on this
  /// acquisition's node (the per-task body of the parallel acquire()).
  [[nodiscard]] std::vector<EnergySample> acquire_benchmark(
      const workload::Benchmark& benchmark);
  /// acquire() with each sweep's cost stored in `sweeps`.
  [[nodiscard]] EnergyDataset acquire_sweeps(
      const std::vector<workload::Benchmark>& benchmarks,
      std::vector<AcquisitionSummary::Sweep>& sweeps);
  /// What every sweep of this acquisition's next acquire() depends on
  /// besides its benchmark: node and RNG state and the options.
  [[nodiscard]] Fingerprint base_fingerprint() const;
  /// The node-clone and store key of sweep `i` of the next acquire().
  [[nodiscard]] std::string noise_key(std::size_t i,
                                      const workload::Benchmark& benchmark)
      const;

  hwsim::NodeSimulator& node_;
  AcquisitionOptions options_;
  Rng rng_;
  long runs_ = 0;
  long acquire_calls_ = 0;  ///< decorrelates sweeps across acquire() calls
};

}  // namespace ecotune::model
