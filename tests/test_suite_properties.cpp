// Property sweeps across the whole 19-benchmark suite: every benchmark must
// satisfy the structural invariants the pipeline relies on, not just the
// five evaluation ones.
#include <gtest/gtest.h>

#include "energymon/rapl.hpp"
#include "energymon/sacct.hpp"
#include "instr/scorep_runtime.hpp"
#include "readex/dyn_detect.hpp"
#include "workload/suite.hpp"

namespace ecotune {
namespace {

class SuiteProperty : public ::testing::TestWithParam<std::string> {
 protected:
  SuiteProperty()
      : app_(workload::BenchmarkSuite::by_name(GetParam())),
        node_(hwsim::haswell_ep_spec(), 0, Rng(11)) {
    node_.set_jitter(0.0);
  }
  const workload::Benchmark& app_;
  hwsim::NodeSimulator node_;
};

TEST_P(SuiteProperty, TraitsAreWithinPhysicalBounds) {
  for (const auto& r : app_.regions()) {
    const auto& t = r.traits;
    EXPECT_GT(t.total_instructions, 0.0) << r.name;
    EXPECT_GT(t.ipc_peak, 0.1) << r.name;
    EXPECT_LE(t.ipc_peak, 4.0) << r.name;
    EXPECT_LE(t.load_fraction + t.store_fraction + t.branch_fraction, 1.0)
        << r.name;
    EXPECT_GE(t.parallel_fraction, 0.0) << r.name;
    EXPECT_LE(t.parallel_fraction, 1.0) << r.name;
    EXPECT_GE(t.overlap, 0.0) << r.name;
    EXPECT_LE(t.overlap, 1.0) << r.name;
    EXPECT_GT(t.activity, 0.1) << r.name;
    EXPECT_LT(t.activity, 1.5) << r.name;
  }
}

TEST_P(SuiteProperty, HasAtLeastOneSignificantRegionAtDefault) {
  instr::ExecutionContext ctx(node_);
  instr::ScorepOptions opts;
  opts.profiling = true;
  instr::ScorepRuntime runtime(
      app_.with_iterations(2),
      instr::InstrumentationFilter::instrument_all(), opts);
  const auto run = runtime.execute(ctx);
  const auto report = readex::readex_dyn_detect(*run.profile);
  EXPECT_GE(report.significant.size(), 1u);
  // The phase must be dominated by significant regions (tunable share).
  double weight = 0.0;
  for (const auto& s : report.significant) weight += s.weight;
  EXPECT_GT(weight, 0.6);
}

TEST_P(SuiteProperty, EnergyAccountingIsConservative) {
  // Node energy observed by independent listeners must agree with the
  // per-kernel ground truth to numerical precision.
  energymon::Sacct sacct(node_);
  energymon::Rapl rapl(node_);
  sacct.job_start(app_.name());
  double kernel_node_energy = 0.0;
  for (const auto& r : app_.regions()) {
    const auto run = node_.run_kernel(r.traits, 24);
    kernel_node_energy += run.node_energy.value();
  }
  const auto rec = sacct.job_end();
  EXPECT_NEAR(rec.consumed_energy.value(), kernel_node_energy,
              1e-9 * kernel_node_energy + 1e-9);
  EXPECT_GT(rapl.exact_total().value(), 0.0);
  EXPECT_LT(rapl.exact_total().value(), rec.consumed_energy.value());
}

TEST_P(SuiteProperty, EnergySurfaceIsBoundedAndNonDegenerate) {
  // Over a coarse frequency lattice, the normalized energy stays within a
  // plausible band and actually varies (a flat surface would make tuning
  // meaningless, an unbounded one signals a model bug).
  // Node energy of one phase iteration: every region, calls_per_iteration
  // times each.
  const auto phase_energy = [&] {
    double e = 0.0;
    for (const auto& r : app_.regions())
      e += node_.run_kernel(r.traits, 24).node_energy.value() *
           r.calls_per_iteration;
    return e;
  };
  node_.set_all_core_freqs(CoreFreq::mhz(2000));
  node_.set_all_uncore_freqs(UncoreFreq::mhz(1500));
  const double e_cal = phase_energy();

  double lo = 1e300, hi = 0.0;
  for (int cf : {1200, 1800, 2500}) {
    node_.set_all_core_freqs(CoreFreq::mhz(cf));
    for (int ucf : {1300, 2100, 3000}) {
      node_.set_all_uncore_freqs(UncoreFreq::mhz(ucf));
      const double e = phase_energy() / e_cal;

      lo = std::min(lo, e);
      hi = std::max(hi, e);
      EXPECT_GT(e, 0.4) << cf << '|' << ucf;
      EXPECT_LT(e, 2.5) << cf << '|' << ucf;
    }
  }
  EXPECT_GT(hi / lo, 1.02);  // at least 2% dynamic range
}

TEST_P(SuiteProperty, PhaseTimeScalesWithIterations) {
  const auto one = instr::run_uninstrumented(
      app_.with_iterations(1), node_,
      SystemConfig{24, CoreFreq::mhz(2000), UncoreFreq::mhz(2000)});
  const auto three = instr::run_uninstrumented(
      app_.with_iterations(3), node_,
      SystemConfig{24, CoreFreq::mhz(2000), UncoreFreq::mhz(2000)});
  EXPECT_NEAR(three.wall_time / one.wall_time, 3.0, 0.02);
  EXPECT_NEAR(three.node_energy / one.node_energy, 3.0, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteProperty,
    ::testing::ValuesIn(workload::BenchmarkSuite::names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (auto& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

}  // namespace
}  // namespace ecotune
