#pragma once

#include "common/units.hpp"
#include "hwsim/node.hpp"

namespace ecotune::hwsim {

/// Software-controlled clock modulation (Intel T-states,
/// IA32_CLOCK_MODULATION): the core is duty-cycled between run and halt at
/// a fixed ratio while voltage and frequency stay put. The paper's
/// introduction lists it alongside DVFS as a user-controllable throttling
/// switch; it is well known to be strictly worse than DVFS for energy at
/// equal slowdown because the static/voltage term is not reduced.
///
/// Duty levels follow the hardware encoding: 16 steps from 6.25 % to 100 %.
class ClockModulation {
 public:
  static constexpr int kSteps = 16;  ///< duty = level / 16

  explicit ClockModulation(NodeSimulator& node) : node_(node) {}

  /// Sets the duty-cycle level (1..16; 16 = no modulation) for all cores.
  /// Charges the same MSR-write latency as a DVFS transition. Returns the
  /// charged latency (zero when unchanged).
  Seconds set_duty_level(int level);

  /// Effective duty fraction in (0, 1].
  [[nodiscard]] double duty() const {
    return static_cast<double>(level_) / kSteps;
  }

  /// Runs a kernel under the current modulation: the core makes progress
  /// only during the duty window, so execution time stretches by ~1/duty
  /// (with a small extra penalty for pipeline drain at every halt window),
  /// while core dynamic power scales with duty and everything else --
  /// static power at the *unreduced* voltage, uncore, DRAM idle, node base
  /// -- burns for the stretched duration.
  KernelRunResult run_kernel(const KernelTraits& k, int threads);

  /// Per-halt-window pipeline-drain inefficiency (fractional time added on
  /// top of the ideal 1/duty stretch at 50 % duty; scales with (1-duty)).
  static constexpr double kDrainPenalty = 0.06;

 private:
  NodeSimulator& node_;
  int level_ = kSteps;
};

}  // namespace ecotune::hwsim
