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

 private:
  Seconds charge(Seconds latency);
  NodeSimulator& node_;
};

}  // namespace ecotune::hwsim
