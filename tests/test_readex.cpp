#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "instr/scorep_runtime.hpp"
#include "readex/dyn_detect.hpp"
#include "readex/rrl.hpp"
#include "readex/tuning_model.hpp"
#include "workload/suite.hpp"

namespace ecotune::readex {
namespace {

instr::CallTreeProfile profile_app(hwsim::NodeSimulator& node,
                                   const workload::Benchmark& app) {
  instr::ExecutionContext ctx(node);
  instr::ScorepOptions opts;
  opts.profiling = true;
  instr::ScorepRuntime runtime(
      app, instr::InstrumentationFilter::instrument_all(), opts);
  auto result = runtime.execute(ctx);
  return std::move(*result.profile);
}

TEST(DynDetect, DetectsPaperSignificantRegionsForLulesh) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(3);
  const auto profile = profile_app(node, app);
  const auto report = readex_dyn_detect(profile);

  EXPECT_EQ(report.significant.size(), 5u);
  for (const char* r :
       {"IntegrateStressForElems", "CalcFBHourglassForceForElems",
        "CalcKinematicsForElems", "CalcQForElems",
        "ApplyMaterialPropertiesForElems"}) {
    EXPECT_TRUE(report.is_significant(r)) << r;
  }
  EXPECT_FALSE(report.is_significant("TimeIncrement"));
  EXPECT_FALSE(report.is_significant("CalcCourantConstraint"));
  // All significant regions respect the threshold.
  for (const auto& s : report.significant)
    EXPECT_GE(s.mean_time.value(), report.threshold.value());
}

TEST(DynDetect, McbHasFiveSignificantRegions) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  const auto app =
      workload::BenchmarkSuite::by_name("Mcb").with_iterations(3);
  const auto report = readex_dyn_detect(profile_app(node, app));
  EXPECT_EQ(report.significant.size(), 5u);
  EXPECT_TRUE(report.is_significant("omp parallel:423"));
}

TEST(DynDetect, ThresholdControlsSelection) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(2);
  const auto profile = profile_app(node, app);
  const auto strict = readex_dyn_detect(profile, Seconds(10.0));
  EXPECT_TRUE(strict.significant.empty());
  const auto lax = readex_dyn_detect(profile, Seconds(1e-6));
  EXPECT_EQ(lax.significant.size(), app.regions().size());
}

TEST(DynDetect, ReportsWeightsAndDynamism) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(3);
  const auto report = readex_dyn_detect(profile_app(node, app));
  double total_weight = 0.0;
  for (const auto& s : report.significant) {
    EXPECT_GT(s.weight, 0.0);
    total_weight += s.weight;
  }
  EXPECT_LE(total_weight, 1.0 + 1e-9);
  EXPECT_GT(total_weight, 0.8);  // significant regions dominate the phase
  EXPECT_GT(report.inter_region_dynamism, 0.5);  // balanced regions
  EXPECT_EQ(report.significant.size(), 5u);
}

TEST(TuningModel, GroupsEqualConfigsIntoScenarios) {
  TuningModel model;
  const SystemConfig a{24, CoreFreq::mhz(2500), UncoreFreq::mhz(2000)};
  const SystemConfig b{20, CoreFreq::mhz(1600), UncoreFreq::mhz(2300)};
  model.add_region("r1", a);
  model.add_region("r2", a);
  model.add_region("r3", b);
  EXPECT_EQ(model.scenarios().size(), 2u);
  EXPECT_EQ(model.region_count(), 3u);
  EXPECT_EQ(model.scenario_id("r1"), model.scenario_id("r2"));
  EXPECT_NE(model.scenario_id("r1"), model.scenario_id("r3"));
  EXPECT_EQ(model.scenario_id("unknown"), -1);
  ASSERT_TRUE(model.lookup("r3").has_value());
  EXPECT_EQ(*model.lookup("r3"), b);
  EXPECT_FALSE(model.lookup("unknown").has_value());
  EXPECT_THROW(model.add_region("r1", b), PreconditionError);
}

TEST(TuningModel, JsonAndFileRoundTrip) {
  TuningModel model;
  model.add_region("alpha", {24, CoreFreq::mhz(2400), UncoreFreq::mhz(1700)});
  model.add_region("beta", {16, CoreFreq::mhz(2500), UncoreFreq::mhz(2300)});
  const TuningModel parsed =
      TuningModel::from_json(Json::parse(model.to_json().dump()));
  EXPECT_EQ(parsed.region_count(), 2u);
  EXPECT_EQ(*parsed.lookup("alpha"),
            (SystemConfig{24, CoreFreq::mhz(2400), UncoreFreq::mhz(1700)}));

  const std::string path =
      (std::filesystem::temp_directory_path() / "ecotune_tm_test.json")
          .string();
  model.save(path);
  const TuningModel loaded = TuningModel::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.region_count(), 2u);
  EXPECT_EQ(*loaded.lookup("beta"),
            (SystemConfig{16, CoreFreq::mhz(2500), UncoreFreq::mhz(2300)}));
}

class RrlTest : public ::testing::Test {
 protected:
  RrlTest()
      : node_(hwsim::haswell_ep_spec(), 0, Rng(1)),
        app_(workload::BenchmarkSuite::by_name("Lulesh").with_iterations(4)) {
    node_.set_jitter(0.0);
    // Model: two regions pinned to different configurations.
    model_.add_region("IntegrateStressForElems",
                      {24, CoreFreq::mhz(2500), UncoreFreq::mhz(2000)});
    model_.add_region("CalcKinematicsForElems",
                      {24, CoreFreq::mhz(2400), UncoreFreq::mhz(2000)});
  }

  instr::InstrumentationFilter significant_only() const {
    auto f = instr::InstrumentationFilter::instrument_all();
    for (const auto& r : app_.regions()) {
      if (!model_.lookup(r.name)) f.exclude(r.name);
    }
    return f;
  }

  hwsim::NodeSimulator node_;
  workload::Benchmark app_;
  TuningModel model_;
  const SystemConfig default_config_{24, CoreFreq::mhz(2500),
                                     UncoreFreq::mhz(3000)};
};

TEST_F(RrlTest, SwitchesOnModelRegionsOnly) {
  const auto result =
      run_with_rrl(app_, node_, model_, significant_only(), default_config_);
  // Per iteration: switch into IntegrateStress config, then into
  // CalcKinematics config; other regions keep the last configuration.
  EXPECT_EQ(result.lookups, 2 * app_.phase_iterations());
  EXPECT_EQ(result.switches, 2 * app_.phase_iterations());
  EXPECT_GT(result.switch_overhead.value(), 0.0);
  EXPECT_GT(result.run.node_energy.value(), 0.0);
}

TEST_F(RrlTest, NoSwitchWhenConfigAlreadyActive) {
  TuningModel single;
  single.add_region("IntegrateStressForElems", default_config_);
  auto filter = instr::InstrumentationFilter::instrument_all();
  for (const auto& r : app_.regions())
    if (r.name != "IntegrateStressForElems") filter.exclude(r.name);
  const auto result =
      run_with_rrl(app_, node_, single, filter, default_config_);
  EXPECT_EQ(result.switches, 0);
  EXPECT_DOUBLE_EQ(result.switch_overhead.value(), 0.0);
  EXPECT_EQ(result.lookups, app_.phase_iterations());
}

TEST_F(RrlTest, DynamicRunSavesEnergyVersusDefault) {
  // Tuned configs lower the uncore clock for the two compute-bound regions;
  // RRL should therefore consume measurably less node energy than the
  // uninstrumented default run even after paying instrumentation overhead.
  hwsim::NodeSimulator ref_node(hwsim::haswell_ep_spec(), 0, Rng(1));
  ref_node.set_jitter(0.0);
  const auto reference =
      instr::run_uninstrumented(app_, ref_node, default_config_);

  TuningModel model;
  for (const auto& r : {"IntegrateStressForElems",
                        "CalcFBHourglassForceForElems",
                        "CalcKinematicsForElems", "CalcQForElems",
                        "ApplyMaterialPropertiesForElems"}) {
    model.add_region(r, {24, CoreFreq::mhz(2500), UncoreFreq::mhz(1700)});
  }
  auto filter = instr::InstrumentationFilter::instrument_all();
  for (const auto& r : app_.regions())
    if (!model.lookup(r.name)) filter.exclude(r.name);

  const auto rat = run_with_rrl(app_, node_, model, filter, default_config_);
  EXPECT_LT(rat.run.node_energy.value(),
            reference.node_energy.value() * 0.99);
}

}  // namespace
}  // namespace ecotune::readex
