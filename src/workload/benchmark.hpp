#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hwsim/kernel_traits.hpp"

namespace ecotune::workload {

/// Programming model of a benchmark (paper Table II: OpenMP-only, MPI-only,
/// or hybrid MPI+OpenMP).
enum class ProgrammingModel { kOpenMp, kMpi, kHybrid };

[[nodiscard]] std::string_view to_string(ProgrammingModel m);

/// One instrumentable code region of a benchmark: a name (function or OpenMP
/// construct, as Score-P would record it) plus the latent kernel
/// characteristics the simulator executes.
struct Region {
  std::string name;
  hwsim::KernelTraits traits;
  /// Executions of this region per phase iteration.
  int calls_per_iteration = 1;
};

/// A benchmark application: a main progress loop (the "phase region") that
/// executes a fixed sequence of regions each iteration. This mirrors the
/// paper's application model: the phase region is manually annotated, inner
/// regions are compiler-instrumented.
class Benchmark {
 public:
  Benchmark(std::string name, std::string suite, ProgrammingModel model,
            std::vector<Region> regions, int phase_iterations,
            double instr_overhead_fraction = 0.015);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& suite() const { return suite_; }
  [[nodiscard]] ProgrammingModel model() const { return model_; }
  [[nodiscard]] const std::vector<Region>& regions() const { return regions_; }
  [[nodiscard]] int phase_iterations() const { return phase_iterations_; }

  /// Residual Score-P overhead per instrumented region execution, as a
  /// fraction of region time (OpenMP/MPI wrapper events that filtering
  /// cannot remove; paper Sec. V-E).
  [[nodiscard]] double instr_overhead_fraction() const {
    return instr_overhead_fraction_;
  }

  /// Copy of this benchmark with a different phase-iteration count (used to
  /// shorten runs when a few phase iterations suffice, as the paper does).
  [[nodiscard]] Benchmark with_iterations(int iterations) const {
    Benchmark copy = *this;
    copy.phase_iterations_ = iterations;
    return copy;
  }

  /// Exact digest of everything that defines this benchmark's simulated
  /// behavior: identity, phase-iteration count, instrumentation overhead,
  /// and every region's kernel traits. The measurement store folds it into
  /// cache keys so editing a workload invalidates its cached measurements.
  [[nodiscard]] std::uint64_t fingerprint_digest() const;

 private:
  std::string name_;
  std::string suite_;
  ProgrammingModel model_;
  std::vector<Region> regions_;
  int phase_iterations_;
  double instr_overhead_fraction_;
};

}  // namespace ecotune::workload
