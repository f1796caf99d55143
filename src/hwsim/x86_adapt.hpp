#pragma once

#include "common/units.hpp"
#include "hwsim/node.hpp"

namespace ecotune::hwsim {

/// Low-level frequency-control interface modelled on the x86_adapt library
/// the paper uses (Schoene & Molka): writes "registers" on the node and
/// charges the documented transition latencies (21 us per core-domain
/// switch, 20 us per socket uncore switch) as idle time on the node's
/// simulated clock.
class X86Adapt {
 public:
  explicit X86Adapt(NodeSimulator& node) : node_(node) {}

  /// Sets all cores and returns the charged latency. MSR writes on distinct
  /// cores proceed concurrently, so one transition latency is charged for
  /// the whole gang.
  Seconds set_all_core_freqs(CoreFreq f);
  /// Sets both sockets' uncore frequency (concurrent; one latency).
  Seconds set_all_uncore_freqs(UncoreFreq f);

  /// Cumulative time spent in frequency transitions.
  [[nodiscard]] Seconds total_switch_time() const { return switch_time_; }
  /// Number of switch operations that actually changed a frequency.
  [[nodiscard]] long switch_count() const { return switch_count_; }

 private:
  Seconds charge(Seconds latency);
  NodeSimulator& node_;
  Seconds switch_time_{0};
  long switch_count_ = 0;
};

}  // namespace ecotune::hwsim
