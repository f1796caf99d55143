#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hwsim/counter_model.hpp"
#include "hwsim/cpu_spec.hpp"
#include "hwsim/kernel_traits.hpp"
#include "hwsim/perf_model.hpp"
#include "hwsim/power_model.hpp"

namespace ecotune::hwsim {

/// Observer of the node's simulated power timeline. Energy monitors (RAPL,
/// sacct) subscribe to receive constant-power segments as simulated wall time
/// advances, and reconstruct measured energy with their own sampling
/// artifacts.
class PowerListener {
 public:
  virtual ~PowerListener() = default;
  /// Called for every segment of simulated time with (approximately)
  /// constant power draw.
  virtual void on_segment(Seconds duration, Watts node_power,
                          Watts cpu_power) = 0;
};

/// Result of executing one kernel (one region execution) on the node.
struct KernelRunResult {
  Seconds time{0};        ///< wall time including run-to-run jitter
  Joules node_energy{0};  ///< ground-truth node (HDEEM-domain) energy
  Joules cpu_energy{0};   ///< ground-truth CPU+DRAM (RAPL-domain) energy
  PerfResult perf;        ///< execution-time model breakdown
  PowerBreakdown power;   ///< power model breakdown
  PmuCounts counters;     ///< noise-free preset counter values
};

/// One simulated compute node: per-core DVFS state, per-socket UFS state,
/// per-node manufacturing variability, a simulated wall clock, and a power
/// timeline that energy monitors can observe.
///
/// The node is the single source of ground truth; everything the tuning
/// plugin "measures" flows through it.
class NodeSimulator {
 public:
  /// Creates node `node_id` with variability drawn from `rng` (typically the
  /// cluster seed forked by node id).
  NodeSimulator(CpuSpec spec, int node_id, const Rng& rng,
                PerfParams perf_params = {}, PowerParams power_params = {});

  [[nodiscard]] const CpuSpec& spec() const { return spec_; }
  [[nodiscard]] int node_id() const { return node_id_; }
  [[nodiscard]] const PowerModel& power_model() const { return power_; }

  /// Raw frequency state changes (no transition latency; use X86Adapt for
  /// latency-accounted switching).
  void set_core_freq(int core, CoreFreq f);
  void set_all_core_freqs(CoreFreq f);
  [[nodiscard]] CoreFreq core_freq(int core) const;
  void set_uncore_freq(int socket, UncoreFreq f);
  void set_all_uncore_freqs(UncoreFreq f);
  [[nodiscard]] UncoreFreq uncore_freq(int socket) const;
  /// Lowest core frequency among the first `threads` cores -- the effective
  /// clock of a gang-scheduled parallel region.
  [[nodiscard]] CoreFreq effective_core_freq(int threads) const;

  /// Executes a kernel with `threads` OpenMP threads at the current
  /// frequency state; advances the simulated clock and notifies listeners.
  KernelRunResult run_kernel(const KernelTraits& k, int threads);

  /// Advances the clock with the node idle (used for switching latencies and
  /// instrumentation overhead).
  void idle(Seconds duration);

  /// Simulated wall clock since node creation.
  [[nodiscard]] Seconds now() const { return now_; }

  /// Ground-truth idle node power at current frequencies.
  [[nodiscard]] PowerBreakdown idle_power() const;

  void add_listener(PowerListener* l);
  void remove_listener(PowerListener* l);

  /// Relative stddev of run-to-run time/power jitter (OS noise). Tests can
  /// set it to zero for exact determinism.
  void set_jitter(double relative_stddev) { jitter_ = relative_stddev; }
  /// Cheap value snapshot of the full node state (frequencies, clock,
  /// variability, noise stream) with NO listeners attached. The parallel
  /// sweep engines hand one clone to each task so concurrent evaluations
  /// cannot race on the shared clock/noise stream.
  [[nodiscard]] NodeSimulator clone() const;
  /// Clone whose noise stream is forked by `noise_key`. Keying the fork by
  /// task identity (not worker identity) is what makes parallel sweeps
  /// bitwise-deterministic for any job count.
  [[nodiscard]] NodeSimulator clone(std::string_view noise_key) const;

  /// Replaces the jitter stream with an independent substream. All clones of
  /// one node share noise state, so per-task streams must be re-keyed.
  void fork_noise(std::string_view key) { noise_ = noise_.fork(key); }

  /// Exact digest of everything a measurement on this node (or a clone of
  /// it) depends on: spec, node identity, manufacturing variability, model
  /// parameters, jitter level, the simulated clock, every frequency
  /// register, and the position of the noise stream. The measurement store
  /// folds this into cache keys so an entry recorded under one node state
  /// can never answer a query made under another.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

 private:
  void emit(Seconds duration, const PowerBreakdown& p);

  CpuSpec spec_;
  int node_id_;
  NodeVariability var_;
  PerfModel perf_;
  PowerModel power_;
  Rng noise_;
  double jitter_ = 0.003;
  Seconds now_{0};
  std::vector<CoreFreq> core_freq_;
  std::vector<UncoreFreq> uncore_freq_;
  std::vector<PowerListener*> listeners_;
};

/// Draws NodeVariability for `node_id` from `rng` (exposed for tests).
[[nodiscard]] NodeVariability draw_node_variability(const Rng& rng,
                                                    int node_id);

}  // namespace ecotune::hwsim
