#pragma once

#include <array>

#include "hwsim/cpu_spec.hpp"
#include "hwsim/kernel_traits.hpp"
#include "hwsim/perf_model.hpp"
#include "hwsim/pmu_events.hpp"

namespace ecotune::hwsim {

/// Vector of all 56 preset counter values for one region execution.
using PmuCounts = std::array<double, kPmuEventCount>;

/// Derives all preset counter values from the latent kernel characteristics
/// and the execution-time model output. Values are exact (noise-free); the
/// measurement path (pmc::EventSet) adds per-read noise and enforces the
/// hardware limit on concurrently programmable counters.
class CounterModel {
 public:
  /// Computes every preset for one region execution.
  [[nodiscard]] static PmuCounts evaluate(const CpuSpec& spec,
                                          const KernelTraits& k, int threads,
                                          CoreFreq core, UncoreFreq uncore,
                                          const PerfResult& perf);
};

}  // namespace ecotune::hwsim
