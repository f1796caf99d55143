#include <gtest/gtest.h>

#include <algorithm>

#include "common/config.hpp"
#include "hwsim/node.hpp"
#include "workload/suite.hpp"

namespace ecotune::workload {
namespace {

TEST(BenchmarkSuite, HasAllNineteenPaperBenchmarks) {
  const auto names = BenchmarkSuite::names();
  EXPECT_EQ(names.size(), 19u);
  for (const char* expected :
       {"CG", "DC", "EP", "FT", "IS", "MG", "BT", "BT-MZ", "SP-MZ",
        "Amg2013", "Lulesh", "miniFE", "XSBench", "Kripke", "Mcb", "CoMD",
        "miniMD", "Blasbench", "BEM4I"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(BenchmarkSuite, LookupByNameWorksAndThrowsOnUnknown) {
  EXPECT_EQ(BenchmarkSuite::by_name("Lulesh").suite(), "CORAL");
  EXPECT_THROW((void)BenchmarkSuite::by_name("NotABenchmark"), ConfigError);
}

TEST(BenchmarkSuite, EvaluationSetMatchesPaper) {
  const auto eval = BenchmarkSuite::evaluation_names();
  EXPECT_EQ(eval, (std::vector<std::string>{"Lulesh", "Amg2013", "miniMD",
                                            "BEM4I", "Mcb"}));
  EXPECT_EQ(BenchmarkSuite::training_set().size(), 14u);
  // Training and evaluation sets are disjoint.
  for (const auto& b : BenchmarkSuite::training_set())
    EXPECT_EQ(std::find(eval.begin(), eval.end(), b.name()), eval.end());
}

bool has_region(const Benchmark& b, const std::string& name) {
  return std::any_of(b.regions().begin(), b.regions().end(),
                     [&](const Region& r) { return r.name == name; });
}

TEST(BenchmarkSuite, PaperRegionNamesPresent) {
  const auto& lulesh = BenchmarkSuite::by_name("Lulesh");
  for (const char* r :
       {"IntegrateStressForElems", "CalcFBHourglassForceForElems",
        "CalcKinematicsForElems", "CalcQForElems",
        "ApplyMaterialPropertiesForElems"}) {
    EXPECT_TRUE(has_region(lulesh, r)) << r;
  }
  const auto& mcb = BenchmarkSuite::by_name("Mcb");
  for (const char* r : {"setupDT", "advPhoton", "omp parallel:423",
                        "omp parallel:501", "omp parallel:642"}) {
    EXPECT_TRUE(has_region(mcb, r)) << r;
  }
  EXPECT_FALSE(has_region(lulesh, "nope"));
}

TEST(BenchmarkSuite, ProgrammingModelsMatchPaperTableTwo) {
  EXPECT_EQ(BenchmarkSuite::by_name("CG").model(), ProgrammingModel::kOpenMp);
  EXPECT_EQ(BenchmarkSuite::by_name("BT-MZ").model(),
            ProgrammingModel::kHybrid);
  EXPECT_EQ(BenchmarkSuite::by_name("Kripke").model(),
            ProgrammingModel::kMpi);
  EXPECT_EQ(BenchmarkSuite::by_name("CoMD").model(), ProgrammingModel::kMpi);
  EXPECT_EQ(to_string(ProgrammingModel::kHybrid), "hybrid");
}

TEST(Benchmark, WithIterationsCopiesEverythingElse) {
  const auto& lulesh = BenchmarkSuite::by_name("Lulesh");
  const auto shortened = lulesh.with_iterations(2);
  EXPECT_EQ(shortened.phase_iterations(), 2);
  EXPECT_EQ(shortened.regions().size(), lulesh.regions().size());
  EXPECT_EQ(shortened.name(), lulesh.name());
}

TEST(Benchmark, PhaseTraitsAggregateConsistently) {
  // One phase iteration is every region run calls_per_iteration times; the
  // counters it retires add up over the regions.
  const auto& lulesh = BenchmarkSuite::by_name("Lulesh");
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  const auto count = [](const hwsim::KernelRunResult& run,
                        hwsim::PmuEvent e) {
    return run.counters[static_cast<std::size_t>(e)];
  };
  double instructions = 0.0, loads = 0.0, expected_instructions = 0.0;
  double lo = 1.0, hi = 0.0;
  for (const auto& r : lulesh.regions()) {
    const auto run = node.run_kernel(r.traits, 24);
    instructions +=
        count(run, hwsim::PmuEvent::kTOT_INS) * r.calls_per_iteration;
    loads += count(run, hwsim::PmuEvent::kLD_INS) * r.calls_per_iteration;
    expected_instructions +=
        r.traits.total_instructions * r.calls_per_iteration;
    lo = std::min(lo, r.traits.load_fraction);
    hi = std::max(hi, r.traits.load_fraction);
  }
  EXPECT_DOUBLE_EQ(instructions, expected_instructions);
  // The phase's load share stays inside the min/max envelope of the
  // regions' load fractions.
  EXPECT_GE(loads / instructions, lo);
  EXPECT_LE(loads / instructions, hi);
}

TEST(Benchmark, ConstructorValidates) {
  Region r{"r", hwsim::KernelTraits{}, 1};
  EXPECT_THROW(Benchmark("x", "s", ProgrammingModel::kOpenMp, {}, 1),
               PreconditionError);
  EXPECT_THROW(Benchmark("x", "s", ProgrammingModel::kOpenMp, {r}, 0),
               PreconditionError);
  EXPECT_THROW(Benchmark("x", "s", ProgrammingModel::kOpenMp, {r}, 1, 0.9),
               PreconditionError);
}

TEST(BenchmarkSuite, EvaluationBenchmarksHaveSignificantAndTinyRegions) {
  // The five evaluation benchmarks need sub-threshold regions so that
  // filtering and significance detection have something to reject.
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  for (const auto& name : BenchmarkSuite::evaluation_names()) {
    const auto& bench = BenchmarkSuite::by_name(name);
    int significant = 0;
    for (const auto& r : bench.regions()) {
      const auto run = node.run_kernel(r.traits, 24);
      if (run.time.value() >= 0.1) ++significant;
    }
    EXPECT_GE(significant, 3) << name;
    EXPECT_LT(significant, static_cast<int>(bench.regions().size()) + 1)
        << name;
  }
}

// Paper Table V shape: ground-truth optima separate compute-bound from
// memory-bound evaluation benchmarks.
TEST(BenchmarkSuite, GroundTruthOptimaReproducePaperShape) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(7));
  node.set_jitter(0.0);
  const auto& spec = node.spec();

  auto best_config = [&](const Benchmark& b) {
    double best_e = 1e300;
    SystemConfig best;
    for (int t : {12, 16, 20, 24}) {
      for (auto cf : spec.core_grid.values()) {
        node.set_all_core_freqs(cf);
        for (auto ucf : spec.uncore_grid.values()) {
          node.set_all_uncore_freqs(ucf);
          double e = 0.0;
          for (const auto& r : b.regions())
            e += node.run_kernel(r.traits, t).node_energy.value();
          if (e < best_e) {
            best_e = e;
            best = SystemConfig{t, cf, ucf};
          }
        }
      }
    }
    return best;
  };

  const auto lulesh = best_config(BenchmarkSuite::by_name("Lulesh"));
  const auto mcb = best_config(BenchmarkSuite::by_name("Mcb"));
  const auto amg = best_config(BenchmarkSuite::by_name("Amg2013"));

  // Compute-bound Lulesh: high CF, low-mid UCF (paper: 2.4|1.7, 24 thr).
  EXPECT_GE(lulesh.core.as_mhz(), 2300);
  EXPECT_LE(lulesh.uncore.as_mhz(), 2000);
  EXPECT_EQ(lulesh.threads, 24);
  // Memory-bound Mcb: low CF, high UCF, 20 threads (paper: 1.6|2.5, 20).
  EXPECT_LE(mcb.core.as_mhz(), 2000);
  EXPECT_GE(mcb.uncore.as_mhz(), 2300);
  EXPECT_EQ(mcb.threads, 20);
  // Amg2013 prefers 16 threads (paper Table V).
  EXPECT_EQ(amg.threads, 16);
}

}  // namespace
}  // namespace ecotune::workload
