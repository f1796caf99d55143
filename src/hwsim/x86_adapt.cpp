#include "hwsim/x86_adapt.hpp"

namespace ecotune::hwsim {

Seconds X86Adapt::charge(Seconds latency) {
  node_.idle(latency);
  return latency;
}

Seconds X86Adapt::set_all_core_freqs(CoreFreq f) {
  bool changed = false;
  for (int c = 0; c < node_.spec().total_cores(); ++c) {
    if (node_.core_freq(c) != f) {
      node_.set_core_freq(c, f);
      changed = true;
    }
  }
  return changed ? charge(node_.spec().core_switch_latency) : Seconds(0);
}

Seconds X86Adapt::set_all_uncore_freqs(UncoreFreq f) {
  bool changed = false;
  for (int s = 0; s < node_.spec().sockets; ++s) {
    if (node_.uncore_freq(s) != f) {
      node_.set_uncore_freq(s, f);
      changed = true;
    }
  }
  return changed ? charge(node_.spec().uncore_switch_latency) : Seconds(0);
}

}  // namespace ecotune::hwsim
