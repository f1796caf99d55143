#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/exhaustive_tuner.hpp"
#include "baseline/static_tuner.hpp"
#include "workload/suite.hpp"

namespace ecotune::baseline {
namespace {

StaticTunerOptions coarse_static() {
  StaticTunerOptions opts;
  opts.thread_counts = {16, 24};
  opts.cf_stride = 3;
  opts.ucf_stride = 3;
  opts.phase_iterations = 1;
  return opts;
}

ExhaustiveTunerOptions coarse_exhaustive() {
  ExhaustiveTunerOptions opts;
  opts.thread_counts = {16, 24};
  opts.cf_stride = 3;
  opts.ucf_stride = 3;
  return opts;
}

TEST(StaticTuner, FindsComputeBoundOptimumForLulesh) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  StaticTuner tuner(node, coarse_static());
  const auto result =
      tuner.tune(workload::BenchmarkSuite::by_name("Lulesh"));
  EXPECT_EQ(result.best.threads, 24);
  EXPECT_GE(result.best.core.as_mhz(), 2100);
  EXPECT_LE(result.best.uncore.as_mhz(), 2200);
  EXPECT_EQ(result.runs, 2 * 5 * 6);  // threads x ceil(14/3) x ceil(18/3)
  EXPECT_EQ(result.evaluated.size(), static_cast<std::size_t>(result.runs));
  EXPECT_GT(result.search_time.value(), 0.0);
}

TEST(StaticTuner, BestPointIsMinimumOfEvaluated) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  StaticTuner tuner(node, coarse_static());
  const auto result = tuner.tune(workload::BenchmarkSuite::by_name("Mcb"));
  for (const auto& p : result.evaluated) {
    EXPECT_LE(result.best_point.node_energy.value(),
              p.node_energy.value() + 1e-9);
  }
}

TEST(StaticTuner, ObjectiveChangesTheWinner) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  StaticTuner tuner(node, coarse_static());
  const auto& app = workload::BenchmarkSuite::by_name("Mcb");
  const auto energy_best = tuner.tune(app, ptf::EnergyObjective{});
  const auto time_best = tuner.tune(app, ptf::TimeObjective{});
  // Time-optimal Mcb wants max bandwidth; energy-optimal wants less.
  EXPECT_GE(time_best.best.uncore.as_mhz(), energy_best.best.uncore.as_mhz());
  EXPECT_GE(time_best.best.core.as_mhz(), energy_best.best.core.as_mhz());
}

TEST(ExhaustiveTuner, FindsPerRegionOptima) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  ExhaustiveTuner tuner(node, coarse_exhaustive());
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(1);
  const auto result = tuner.tune(app);

  EXPECT_EQ(result.region_best.size(), app.regions().size());
  EXPECT_EQ(result.runs, 2 * 5 * 6);
  // Paper formula cost is n regions times larger than one sweep.
  EXPECT_DOUBLE_EQ(result.formula_runs,
                   static_cast<double>(result.runs) *
                       static_cast<double>(app.regions().size()));
  EXPECT_GT(result.formula_time.value(), result.search_time.value());
  // App-level best mirrors the compute-bound character.
  EXPECT_GE(result.app_best.core.as_mhz(), 2100);
}

TEST(ExhaustiveTuner, RegionOptimaAreAtLeastAsGoodAsAppOptimum) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(2));
  node.set_jitter(0.0);
  ExhaustiveTunerOptions opts = coarse_exhaustive();
  ExhaustiveTuner tuner(node, opts);
  const auto app =
      workload::BenchmarkSuite::by_name("Mcb").with_iterations(1);
  const auto result = tuner.tune(app);

  // Verify region-best really beats (or ties) the app-best config for each
  // region, using a fresh noise-free evaluation.
  for (const auto& [name, best_cfg] : result.region_best) {
    const auto region =
        std::find_if(app.regions().begin(), app.regions().end(),
                     [&](const workload::Region& r) { return r.name == name; });
    ASSERT_NE(region, app.regions().end());

    node.set_all_core_freqs(best_cfg.core);
    node.set_all_uncore_freqs(best_cfg.uncore);
    const double e_best =
        node.run_kernel(region->traits, best_cfg.threads).node_energy.value();
    node.set_all_core_freqs(result.app_best.core);
    node.set_all_uncore_freqs(result.app_best.uncore);
    const double e_app =
        node.run_kernel(region->traits, result.app_best.threads)
            .node_energy.value();
    EXPECT_LE(e_best, e_app * 1.001) << name;
  }
}

TEST(StaticTuner, JobCountDoesNotChangeResults) {
  // Jitter stays ON: the per-config RNG keying is what's under test.
  auto tune_with_jobs = [](int jobs) {
    hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(7));
    StaticTunerOptions opts = coarse_static();
    opts.jobs = jobs;
    StaticTuner tuner(node, opts);
    return tuner.tune(workload::BenchmarkSuite::by_name("Lulesh"));
  };
  const auto serial = tune_with_jobs(1);
  const auto wide = tune_with_jobs(8);
  EXPECT_EQ(serial.best, wide.best);
  EXPECT_EQ(serial.runs, wide.runs);
  EXPECT_EQ(serial.search_time.value(), wide.search_time.value());  // bitwise
  ASSERT_EQ(serial.evaluated.size(), wide.evaluated.size());
  for (std::size_t i = 0; i < serial.evaluated.size(); ++i) {
    EXPECT_EQ(serial.evaluated[i].config, wide.evaluated[i].config);
    EXPECT_EQ(serial.evaluated[i].node_energy.value(),
              wide.evaluated[i].node_energy.value());
    EXPECT_EQ(serial.evaluated[i].cpu_energy.value(),
              wide.evaluated[i].cpu_energy.value());
    EXPECT_EQ(serial.evaluated[i].time.value(),
              wide.evaluated[i].time.value());
  }
}

TEST(ExhaustiveTuner, JobCountDoesNotChangeResults) {
  auto tune_with_jobs = [](int jobs) {
    hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(8));
    ExhaustiveTunerOptions opts = coarse_exhaustive();
    opts.jobs = jobs;
    ExhaustiveTuner tuner(node, opts);
    return tuner.tune(
        workload::BenchmarkSuite::by_name("Mcb").with_iterations(1));
  };
  const auto serial = tune_with_jobs(1);
  const auto wide = tune_with_jobs(8);
  EXPECT_EQ(serial.app_best, wide.app_best);
  EXPECT_EQ(serial.runs, wide.runs);
  EXPECT_EQ(serial.search_time.value(), wide.search_time.value());
  EXPECT_EQ(serial.formula_time.value(), wide.formula_time.value());
  ASSERT_EQ(serial.region_best.size(), wide.region_best.size());
  for (const auto& [region, cfg] : serial.region_best)
    EXPECT_EQ(cfg, wide.region_best.at(region)) << region;
}

TEST(TuningTimeComparison, ModelBasedIsOrdersOfMagnitudeCheaper) {
  // Paper Sec. V-C: ours is (k + 1 + 9) experiments vs n*k*l*m runs.
  const int n_regions = 5;
  const int k = 4;    // thread settings
  const int l = 14;   // core frequencies
  const int m = 18;   // uncore frequencies
  const double exhaustive = static_cast<double>(n_regions) * k * l * m;
  const double ours = k + 1 + 9;
  EXPECT_GT(exhaustive / ours, 300.0);
}

}  // namespace
}  // namespace ecotune::baseline
