#include <gtest/gtest.h>

#include "core/dvfs_ufs_plugin.hpp"
#include "model/dataset.hpp"
#include "workload/suite.hpp"

namespace ecotune::core {
namespace {

/// Trains a small-but-adequate energy model once for all plugin tests.
class PluginTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    node_ = new hwsim::NodeSimulator(hwsim::haswell_ep_spec(), 0, Rng(1));
    node_->set_jitter(0.001);
    // Paper-faithful training: the 14 training benchmarks over the full
    // frequency grid at all four thread counts, 10 epochs (Sec. V-B).
    model::AcquisitionOptions opts;
    opts.phase_iterations = 2;
    model::DataAcquisition acq(*node_, opts);
    const auto ds = acq.acquire(workload::BenchmarkSuite::training_set());
    trained_ = new model::EnergyModel();
    trained_->train(ds, 10);
  }
  static void TearDownTestSuite() {
    delete trained_;
    delete node_;
    trained_ = nullptr;
    node_ = nullptr;
  }

  static hwsim::NodeSimulator* node_;
  static model::EnergyModel* trained_;
};

hwsim::NodeSimulator* PluginTest::node_ = nullptr;
model::EnergyModel* PluginTest::trained_ = nullptr;

TEST_F(PluginTest, RejectsUntrainedModel) {
  model::EnergyModel untrained;
  EXPECT_THROW(DvfsUfsPlugin plugin(untrained), PreconditionError);
}

TEST_F(PluginTest, FullDtaOnLulesh) {
  DvfsUfsPlugin plugin(*trained_);
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(10);
  const DtaResult result = plugin.run_dta(app, *node_);

  // Pre-processing found the paper's five significant regions and filtered
  // the two helpers.
  EXPECT_EQ(result.dyn_report.significant.size(), 5u);
  EXPECT_EQ(result.autofilter.excluded.size(), 2u);

  // Step 1: exhaustive threads 12..24 step 4 -> k = 4 scenarios; Lulesh
  // scales, so the phase optimum is 24 threads.
  EXPECT_EQ(result.thread_scenarios, 4);
  EXPECT_EQ(result.phase_threads, 24);

  // Analysis: 7 counters at 4 per run -> 2 runs.
  EXPECT_EQ(result.analysis_runs, 2);

  // Step 2: 3x3 neighborhood around the recommendation (interior point).
  EXPECT_GE(result.frequency_scenarios, 4);
  EXPECT_LE(result.frequency_scenarios, 9);

  // Recommendation in the compute-bound half: CF above the grid midpoint,
  // UCF below the default 3.0 GHz (exact cells vary with training noise).
  EXPECT_GE(result.recommendation.cf.as_mhz(), 2000);
  EXPECT_LE(result.recommendation.ucf.as_mhz(), 2400);

  // Region bests live inside the verified neighborhood.
  for (const auto& [region, cfg] : result.region_best) {
    EXPECT_LE(std::abs(cfg.core.as_mhz() -
                       result.recommendation.cf.as_mhz()),
              100)
        << region;
    EXPECT_LE(std::abs(cfg.uncore.as_mhz() -
                       result.recommendation.ucf.as_mhz()),
              100)
        << region;
  }

  // Tuning model covers exactly the significant regions.
  EXPECT_EQ(result.tuning_model.region_count(), 5u);
  EXPECT_GE(result.tuning_model.scenarios().size(), 1u);
  EXPECT_LE(result.tuning_model.scenarios().size(), 5u);
  for (const auto& sig : result.dyn_report.significant)
    EXPECT_TRUE(result.tuning_model.lookup(sig.name).has_value())
        << sig.name;

  // Cost accounting is filled in.
  EXPECT_GT(result.tuning_time.value(), 0.0);
  EXPECT_GT(result.app_runs, 0);
}

TEST_F(PluginTest, McbRecommendationIsMemoryBoundCorner) {
  DvfsUfsPlugin plugin(*trained_);
  const auto app =
      workload::BenchmarkSuite::by_name("Mcb").with_iterations(10);
  const DtaResult result = plugin.run_dta(app, *node_);
  // Memory-bound: low CF, high UCF (paper Fig. 7 / Table IV).
  EXPECT_LE(result.recommendation.cf.as_mhz(), 2000);
  EXPECT_GE(result.recommendation.ucf.as_mhz(), 2200);
  EXPECT_EQ(result.dyn_report.significant.size(), 5u);
  // Mcb's phase optimum is 20 threads (paper Fig. 7).
  EXPECT_EQ(result.phase_threads, 20);
}

TEST_F(PluginTest, PerRegionThreadsComeFromStepOne) {
  DvfsUfsPlugin plugin(*trained_);
  const auto app =
      workload::BenchmarkSuite::by_name("Amg2013").with_iterations(10);
  const DtaResult result = plugin.run_dta(app, *node_);
  EXPECT_EQ(result.phase_threads, 16);  // paper Table V
  for (const auto& [region, cfg] : result.region_best) {
    auto it = result.region_threads.find(region);
    ASSERT_NE(it, result.region_threads.end()) << region;
    EXPECT_EQ(cfg.threads, it->second) << region;
  }
}

TEST_F(PluginTest, EdpObjectiveShiftsTowardFasterConfigs) {
  DvfsUfsPlugin::Options energy_opts;
  DvfsUfsPlugin energy_plugin(*trained_, energy_opts);
  const auto app =
      workload::BenchmarkSuite::by_name("Mcb").with_iterations(10);
  const auto energy_result = energy_plugin.run_dta(app, *node_);

  DvfsUfsPlugin::Options edp_opts;
  edp_opts.config.objective = "edp";
  DvfsUfsPlugin edp_plugin(*trained_, edp_opts);
  const auto edp_result = edp_plugin.run_dta(app, *node_);

  // EDP penalizes slowdown, so the phase-best core frequency under EDP is
  // at least as high as under pure energy.
  EXPECT_GE(edp_result.phase_best.core.as_mhz(),
            energy_result.phase_best.core.as_mhz());
}

TEST_F(PluginTest, NeighborhoodRadiusControlsScenarioCount) {
  DvfsUfsPlugin::Options opts;
  opts.config.neighborhood_radius = 0;
  DvfsUfsPlugin plugin(*trained_, opts);
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(8);
  const auto result = plugin.run_dta(app, *node_);
  EXPECT_EQ(result.frequency_scenarios, 1);
  // With radius 0 every region inherits the recommendation directly.
  for (const auto& [region, cfg] : result.region_best) {
    EXPECT_EQ(cfg.core, result.recommendation.cf) << region;
    EXPECT_EQ(cfg.uncore, result.recommendation.ucf) << region;
  }
}

TEST_F(PluginTest, PerRegionPredictionFillsRecommendations) {
  DvfsUfsPlugin::Options opts;
  opts.config.per_region_prediction = true;
  DvfsUfsPlugin plugin(*trained_, opts);
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(10);
  const DtaResult result = plugin.run_dta(app, *node_);

  // One recommendation per significant region.
  EXPECT_EQ(result.region_recommendations.size(), 5u);
  // Analysis doubles: phase counters (2 runs) + per-region counters (2).
  EXPECT_EQ(result.analysis_runs, 4);
  // The union space is at least as large as one neighborhood.
  EXPECT_GE(result.frequency_scenarios, 4);
  // Every region's best configuration lies inside its own recommendation's
  // neighborhood.
  const auto& spec = node_->spec();
  for (const auto& [region, cfg] : result.region_best) {
    const auto& rec = result.region_recommendations.at(region);
    EXPECT_LE(std::abs(cfg.core.as_mhz() - rec.cf.as_mhz()),
              spec.core_grid.step_mhz())
        << region;
    EXPECT_LE(std::abs(cfg.uncore.as_mhz() - rec.ucf.as_mhz()),
              spec.uncore_grid.step_mhz())
        << region;
  }
  EXPECT_EQ(result.tuning_model.region_count(), 5u);
}

TEST_F(PluginTest, PerRegionModeSeparatesHeterogeneousRegions) {
  // An application mixing a compute kernel with a bandwidth-bound sweep:
  // per-region prediction should hand the two regions distinct frequency
  // recommendations (the phase-level mode by construction cannot).
  hwsim::KernelTraits compute;
  compute.total_instructions = 20e9;
  compute.ipc_peak = 2.4;
  compute.fp_fraction = 0.45;
  compute.vector_fraction = 0.5;
  compute.dram_bytes = 0.1 * compute.total_instructions;
  compute.uncore_cycles = 0.08 * compute.total_instructions;
  compute.parallel_fraction = 0.997;
  compute.contention = 0.002;
  compute.activity = 1.0;

  hwsim::KernelTraits stream;
  stream.total_instructions = 8e9;
  stream.ipc_peak = 1.3;
  stream.load_fraction = 0.4;
  stream.l1d_miss_rate = 0.13;
  stream.dram_bytes = 3.2 * stream.total_instructions;
  stream.uncore_cycles = 0.6 * stream.total_instructions;
  stream.parallel_fraction = 0.99;
  stream.contention = 0.008;
  stream.overlap = 0.9;
  stream.activity = 0.62;

  const workload::Benchmark app(
      "two-phase-app", "test", workload::ProgrammingModel::kHybrid,
      {workload::Region{"dense_kernel", compute, 1},
       workload::Region{"stream_sweep", stream, 1}},
      10, 0.01);

  DvfsUfsPlugin::Options opts;
  opts.config.per_region_prediction = true;
  DvfsUfsPlugin plugin(*trained_, opts);
  const DtaResult result = plugin.run_dta(app, *node_);

  ASSERT_EQ(result.region_recommendations.size(), 2u);
  const auto& dense = result.region_recommendations.at("dense_kernel");
  const auto& sweep = result.region_recommendations.at("stream_sweep");
  // The compute kernel wants a higher core clock than the sweep, and the
  // sweep wants at least as much uncore as the kernel.
  EXPECT_GT(dense.cf.as_mhz(), sweep.cf.as_mhz());
  EXPECT_GE(sweep.ucf.as_mhz(), dense.ucf.as_mhz());
}

}  // namespace
}  // namespace ecotune::core
