#include "workload/benchmark.hpp"

#include "common/error.hpp"
#include "common/fingerprint.hpp"

namespace ecotune::workload {

std::string_view to_string(ProgrammingModel m) {
  switch (m) {
    case ProgrammingModel::kOpenMp:
      return "OpenMP";
    case ProgrammingModel::kMpi:
      return "MPI";
    case ProgrammingModel::kHybrid:
      return "hybrid";
  }
  return "?";
}

Benchmark::Benchmark(std::string name, std::string suite,
                     ProgrammingModel model, std::vector<Region> regions,
                     int phase_iterations, double instr_overhead_fraction)
    : name_(std::move(name)),
      suite_(std::move(suite)),
      model_(model),
      regions_(std::move(regions)),
      phase_iterations_(phase_iterations),
      instr_overhead_fraction_(instr_overhead_fraction) {
  ensure(!regions_.empty(), "Benchmark: needs at least one region");
  ensure(phase_iterations_ >= 1, "Benchmark: needs at least one iteration");
  ensure(instr_overhead_fraction_ >= 0.0 && instr_overhead_fraction_ < 0.5,
         "Benchmark: implausible instrumentation overhead");
}

std::uint64_t Benchmark::fingerprint_digest() const {
  Fingerprint fp;
  fp.add("name", name_)
      .add("suite", suite_)
      .add("model", static_cast<int>(model_))
      .add("phase_iterations", phase_iterations_)
      .add("instr_overhead_fraction", instr_overhead_fraction_);
  for (const Region& r : regions_) {
    const hwsim::KernelTraits& k = r.traits;
    fp.add("region", r.name)
        .add("calls_per_iteration", r.calls_per_iteration)
        .add("total_instructions", k.total_instructions)
        .add("ipc_peak", k.ipc_peak)
        .add("load_fraction", k.load_fraction)
        .add("store_fraction", k.store_fraction)
        .add("branch_fraction", k.branch_fraction)
        .add("branch_conditional_fraction", k.branch_conditional_fraction)
        .add("branch_taken_rate", k.branch_taken_rate)
        .add("branch_miss_rate", k.branch_miss_rate)
        .add("l1d_miss_rate", k.l1d_miss_rate)
        .add("l1i_miss_rate", k.l1i_miss_rate)
        .add("l2_miss_rate", k.l2_miss_rate)
        .add("l3_miss_rate", k.l3_miss_rate)
        .add("tlb_d_rate", k.tlb_d_rate)
        .add("tlb_i_rate", k.tlb_i_rate)
        .add("fp_fraction", k.fp_fraction)
        .add("fp_double_fraction", k.fp_double_fraction)
        .add("vector_fraction", k.vector_fraction)
        .add("fp_div_fraction", k.fp_div_fraction)
        .add("dram_bytes", k.dram_bytes)
        .add("uncore_cycles", k.uncore_cycles)
        .add("parallel_fraction", k.parallel_fraction)
        .add("contention", k.contention)
        .add("sync_seconds_per_thread", k.sync_seconds_per_thread)
        .add("overlap", k.overlap)
        .add("activity", k.activity);
  }
  return fp.digest();
}

}  // namespace ecotune::workload
