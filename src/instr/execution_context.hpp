#pragma once

#include "common/config.hpp"
#include "common/units.hpp"
#include "hwsim/node.hpp"
#include "hwsim/x86_adapt.hpp"

namespace ecotune::instr {

/// Binds an application run to a node: tracks the active OpenMP thread count
/// and provides latency-accounted frequency control. Parameter Control
/// Plugins and the RRL mutate system state exclusively through this object,
/// so switching overhead is accounted in one place.
class ExecutionContext {
 public:
  explicit ExecutionContext(hwsim::NodeSimulator& node)
      : node_(node), adapt_(node) {}

  [[nodiscard]] hwsim::NodeSimulator& node() { return node_; }
  [[nodiscard]] const hwsim::NodeSimulator& node() const { return node_; }
  [[nodiscard]] hwsim::X86Adapt& adapt() { return adapt_; }

  [[nodiscard]] int omp_threads() const { return omp_threads_; }

  /// Changes the OpenMP team size; charges the fork/join reshaping latency
  /// when the value actually changes.
  Seconds set_omp_threads(int threads);

  /// Applies a full configuration (threads + CF + UCF); returns the total
  /// switching overhead charged.
  Seconds apply(const SystemConfig& config);

  /// Currently active configuration.
  [[nodiscard]] SystemConfig current() const;

 private:
  hwsim::NodeSimulator& node_;
  hwsim::X86Adapt adapt_;
  int omp_threads_ = 24;
  /// OpenMP team resize cost (omp_set_num_threads + next fork).
  static constexpr Seconds kThreadSwitchLatency{8e-6};
};

}  // namespace ecotune::instr
