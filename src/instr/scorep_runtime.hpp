#pragma once

#include <optional>
#include <vector>

#include "common/units.hpp"
#include "instr/execution_context.hpp"
#include "instr/filter.hpp"
#include "instr/profile.hpp"
#include "instr/region_events.hpp"
#include "workload/benchmark.hpp"

namespace ecotune::instr {

/// Name under which the manually annotated phase region appears (Score-P
/// user-region macro SCOREP_USER_REGION in the paper's workflow).
inline constexpr std::string_view kPhaseRegionName = "PHASE";

/// Knobs of the instrumented runtime.
struct ScorepOptions {
  /// Build a call-tree profile during the run (SCOREP_ENABLE_PROFILING).
  bool profiling = false;
  /// Cost of one measurement probe event (enter or exit).
  Seconds per_event_overhead{1.5e-6};
  /// Whether the residual per-region overhead fraction (uninstrumentable
  /// OpenMP/MPI wrapper events, paper Sec. V-E) is charged.
  bool charge_region_overhead = true;
};

/// Aggregate result of one instrumented application run.
struct AppRunResult {
  Seconds wall_time{0};
  Joules node_energy{0};  ///< exact node energy incl. all overheads
  Joules cpu_energy{0};   ///< exact CPU energy incl. all overheads
  long instrumentation_events = 0;
  Seconds instrumentation_overhead{0};  ///< probe + wrapper overhead time
  std::optional<CallTreeProfile> profile;
};

/// The Score-P measurement substrate: executes a workload::Benchmark on an
/// ExecutionContext, firing region enter/exit events for instrumented
/// regions, charging probe overhead, and aggregating ground-truth energy.
/// The benchmark is stored by value, so temporaries (e.g.
/// app.with_iterations(n)) are safe to pass.
///
/// Listeners registered before execute() observe the run: profilers,
/// tracers, and the READEX Runtime Library all attach here.
class ScorepRuntime {
 public:
  ScorepRuntime(workload::Benchmark app, InstrumentationFilter filter,
                ScorepOptions options = {});

  /// Registers a region-event listener (not owned).
  void add_listener(RegionListener* l);

  /// Runs the full application (all phase iterations).
  AppRunResult execute(ExecutionContext& ctx);

 private:
  workload::Benchmark app_;
  InstrumentationFilter filter_;
  ScorepOptions options_;
  std::vector<RegionListener*> listeners_;
};

/// Convenience: run `app` uninstrumented at a fixed configuration on `node`
/// and return the exact job-level result (the paper's "default run").
AppRunResult run_uninstrumented(const workload::Benchmark& app,
                                hwsim::NodeSimulator& node,
                                const SystemConfig& config);

}  // namespace ecotune::instr
