#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "hwsim/node.hpp"
#include "ptf/experiments_engine.hpp"
#include "ptf/objectives.hpp"
#include "ptf/search_space.hpp"
#include "ptf/tuning_parameter.hpp"
#include "workload/suite.hpp"

namespace ecotune::ptf {
namespace {

TEST(TuningParameter, OmpThreadsRange) {
  const auto p = omp_threads_parameter(12, 24, 4);
  EXPECT_EQ(p.name, "OpenMPTP");
  EXPECT_EQ(p.values, (std::vector<int>{12, 16, 20, 24}));
  EXPECT_THROW(omp_threads_parameter(12, 8, 4), PreconditionError);
}

TEST(TuningParameter, FrequencyParameters) {
  const auto cf = core_freq_parameter(
      {CoreFreq::mhz(2400), CoreFreq::mhz(2500)});
  EXPECT_EQ(cf.name, "cpu_freq");
  EXPECT_EQ(cf.values, (std::vector<int>{2400, 2500}));
  EXPECT_THROW(uncore_freq_parameter({}), PreconditionError);
}

TEST(Scenario, ConfigConversionRoundTrip) {
  const SystemConfig base{24, CoreFreq::mhz(2000), UncoreFreq::mhz(1500)};
  Scenario s = config_to_scenario(7, SystemConfig{16, CoreFreq::mhz(1800),
                                                  UncoreFreq::mhz(2200)});
  EXPECT_EQ(s.id, 7);
  const SystemConfig c = scenario_to_config(s, base);
  EXPECT_EQ(c.threads, 16);
  EXPECT_EQ(c.core, CoreFreq::mhz(1800));
  EXPECT_EQ(c.uncore, UncoreFreq::mhz(2200));

  // Partial scenario falls back to the base.
  Scenario partial;
  partial.values["cpu_freq"] = 1200;
  const SystemConfig pc = scenario_to_config(partial, base);
  EXPECT_EQ(pc.threads, 24);
  EXPECT_EQ(pc.core, CoreFreq::mhz(1200));
  EXPECT_EQ(pc.uncore, UncoreFreq::mhz(1500));
  EXPECT_THROW((void)partial.at("OpenMPTP"), PreconditionError);
}

TEST(SearchSpace, ExhaustiveCartesianProduct) {
  static_assert(std::is_same_v<decltype(Scenario::id), std::int64_t>,
                "scenario ids must reach past INT_MAX");
  SearchSpace space;
  space.add_parameter(omp_threads_parameter(12, 24, 4));
  space.add_parameter(core_freq_parameter(
      {CoreFreq::mhz(2400), CoreFreq::mhz(2500)}));
  EXPECT_EQ(space.size(), 8u);
  const auto scenarios = space.exhaustive();
  ASSERT_EQ(scenarios.size(), 8u);
  // Ids are unique and sequential.
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    EXPECT_EQ(scenarios[i].id, static_cast<int>(i));
  // All combinations distinct.
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    for (std::size_t j = i + 1; j < scenarios.size(); ++j)
      EXPECT_NE(scenarios[i].values, scenarios[j].values);
  // Parameter 0 varies fastest.
  EXPECT_EQ(scenarios[0].values.at("OpenMPTP"), 12);
  EXPECT_EQ(scenarios[0].values.at("cpu_freq"), 2400);
  EXPECT_EQ(scenarios[1].values.at("OpenMPTP"), 16);
  EXPECT_EQ(scenarios[1].values.at("cpu_freq"), 2400);
  EXPECT_EQ(scenarios[4].values.at("OpenMPTP"), 12);
  EXPECT_EQ(scenarios[4].values.at("cpu_freq"), 2500);
}

TEST(SearchSpace, EmptyAndDegenerate) {
  SearchSpace space;
  EXPECT_EQ(space.size(), 0u);
  EXPECT_TRUE(space.exhaustive().empty());
  TuningParameter p;
  p.name = "x";
  EXPECT_THROW(space.add_parameter(p), PreconditionError);
}

TEST(SearchSpace, SizeThrowsOnOverflowInsteadOfWrapping) {
  SearchSpace space;
  TuningParameter p;
  p.values.assign(std::size_t{1} << 16, 0);  // 2^16 values per parameter
  for (const char* name : {"p0", "p1", "p2", "p3"}) {
    p.name = name;
    space.add_parameter(p);
  }
  // 2^64 scenarios: one past what 64 bits hold.
  EXPECT_THROW((void)space.size(), PreconditionError);
  EXPECT_THROW((void)space.exhaustive(), PreconditionError);
}

TEST(Objectives, EvaluateAndOrdering) {
  Measurement cheap;
  cheap.node_energy = Joules(100);
  cheap.cpu_energy = Joules(70);
  cheap.time = Seconds(2.0);
  Measurement fast;
  fast.node_energy = Joules(120);
  fast.cpu_energy = Joules(90);
  fast.time = Seconds(1.0);

  EXPECT_LT(EnergyObjective{}.evaluate(cheap),
            EnergyObjective{}.evaluate(fast));
  EXPECT_LT(TimeObjective{}.evaluate(fast), TimeObjective{}.evaluate(cheap));
  EXPECT_DOUBLE_EQ(EdpObjective{}.evaluate(cheap), 200.0);
  EXPECT_DOUBLE_EQ(Ed2pObjective{}.evaluate(cheap), 400.0);
  // EDP prefers the fast run here, energy the cheap one: the classic trade.
  EXPECT_LT(EdpObjective{}.evaluate(fast), EdpObjective{}.evaluate(cheap));
  EXPECT_GT(TcoObjective{}.evaluate(cheap), 0.0);
  EXPECT_DOUBLE_EQ(CpuEnergyObjective{}.evaluate(cheap), 70.0);
}

TEST(Objectives, FactoryByName) {
  for (const char* name :
       {"energy", "cpu_energy", "time", "edp", "ed2p", "tco"}) {
    const auto obj = make_objective(name);
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->name(), name);
  }
  EXPECT_THROW(make_objective("nope"), ConfigError);
}

TEST(Objectives, PowerCapPenalizesOnlyAboveTheCap) {
  const PowerCapObjective cap(100.0);  // 100 W cap
  Measurement under;                   // 50 W mean power
  under.node_energy = Joules(100);
  under.time = Seconds(2.0);
  Measurement at_cap;  // exactly 100 W
  at_cap.node_energy = Joules(200);
  at_cap.time = Seconds(2.0);
  Measurement over;  // 150 W
  over.node_energy = Joules(300);
  over.time = Seconds(2.0);

  // At or under the cap the score degenerates to plain time.
  EXPECT_DOUBLE_EQ(cap.evaluate(under), 2.0);
  EXPECT_DOUBLE_EQ(cap.evaluate(at_cap), 2.0);
  // 50% excess at weight 10: 2.0 + 10 * 0.5 * 2.0 = 12.0.
  EXPECT_DOUBLE_EQ(cap.evaluate(over), 12.0);
}

TEST(Objectives, PowerCapPenaltyIsMonotoneInExcessPower) {
  const PowerCapObjective cap(100.0);
  double previous = 0.0;
  for (int watts = 100; watts <= 400; watts += 50) {
    Measurement m;  // fixed 1 s runtime, rising mean power
    m.time = Seconds(1.0);
    m.node_energy = Joules(watts);
    const double score = cap.evaluate(m);
    EXPECT_GT(score, previous - 1e-12) << watts;
    if (watts > 100) {
      EXPECT_GT(score, previous) << watts;
    }
    previous = score;
  }
}

TEST(Objectives, PowerCapZeroTimeMeasurementScoresZero) {
  // Mean power is undefined without runtime; the score must not divide by
  // zero or produce NaN/inf.
  const PowerCapObjective cap(100.0);
  Measurement zero;
  zero.node_energy = Joules(500);
  zero.time = Seconds(0.0);
  EXPECT_DOUBLE_EQ(cap.evaluate(zero), 0.0);
}

TEST(Objectives, EnergyBudgetPenalizesOverBudgetEvenAtZeroTime) {
  const EnergyBudgetObjective budget(1000.0);
  Measurement under;
  under.node_energy = Joules(800);
  under.time = Seconds(3.0);
  EXPECT_DOUBLE_EQ(budget.evaluate(under), 3.0);

  // The penalty is additive, not time-scaled: an over-budget measurement
  // stays penalized as its time approaches zero.
  Measurement over_fast;
  over_fast.node_energy = Joules(1500);
  over_fast.time = Seconds(0.0);
  EXPECT_DOUBLE_EQ(over_fast.time.value() +
                       10.0 * (1500.0 - 1000.0) / 1000.0,
                   budget.evaluate(over_fast));
  EXPECT_GT(budget.evaluate(over_fast), 0.0);
}

TEST(Objectives, EnergyBudgetPenaltyIsMonotoneInExcessEnergy) {
  const EnergyBudgetObjective budget(1000.0);
  double previous = -1.0;
  for (int joules = 1000; joules <= 4000; joules += 500) {
    Measurement m;
    m.time = Seconds(1.0);
    m.node_energy = Joules(joules);
    const double score = budget.evaluate(m);
    if (joules > 1000) {
      EXPECT_GT(score, previous) << joules;
    }
    previous = score;
  }
}

TEST(Objectives, CapFamilyFactoryAndParameterizedNamesRoundTrip) {
  // Base spellings construct the defaults and keep a reconstructible name.
  for (const char* name : {"power_cap", "energy_budget"}) {
    const auto obj = make_objective(name);
    ASSERT_NE(obj, nullptr);
    const auto again = make_objective(obj->name());
    EXPECT_EQ(again->name(), obj->name());
  }
  // Parameterized spellings round-trip through name() exactly.
  const auto capped = make_objective("power_cap:250");
  EXPECT_EQ(capped->name(), "power_cap:250");
  EXPECT_EQ(make_objective(capped->name())->name(), "power_cap:250");
  const auto budgeted = make_objective("energy_budget:5000");
  EXPECT_EQ(budgeted->name(), "energy_budget:5000");

  // Malformed or non-positive parameters are configuration errors.
  EXPECT_THROW(make_objective("power_cap:"), ConfigError);
  EXPECT_THROW(make_objective("power_cap:zero"), ConfigError);
  EXPECT_THROW(make_objective("power_cap:-5"), ConfigError);
  EXPECT_THROW(make_objective("energy_budget:0"), ConfigError);
  EXPECT_THROW(make_objective("watt_cap:100"), ConfigError);
}

TEST(Objectives, NamesListIsSortedAndFactoryComplete) {
  const auto& names = objective_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const auto& name : names) {
    const auto obj = make_objective(name);
    ASSERT_NE(obj, nullptr);
  }
  EXPECT_NE(objective_names_joined().find("power_cap"), std::string::npos);
  EXPECT_NE(objective_names_joined().find("energy_budget"),
            std::string::npos);
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : node_(hwsim::haswell_ep_spec(), 0, Rng(1)),
        app_(workload::BenchmarkSuite::by_name("Lulesh").with_iterations(6)) {
    node_.set_jitter(0.0);
  }
  hwsim::NodeSimulator node_;
  workload::Benchmark app_;
  const SystemConfig base_{24, CoreFreq::mhz(2000), UncoreFreq::mhz(1500)};
};

TEST_F(EngineTest, OneScenarioPerPhaseIteration) {
  SearchSpace space;
  space.add_parameter(omp_threads_parameter(12, 24, 4));
  EngineOptions opts;
  opts.measurement_noise = 0.0;
  ExperimentsEngine engine(node_, app_,
                           instr::InstrumentationFilter::instrument_all(),
                           opts);
  const auto results = engine.run(space.exhaustive(), base_);
  ASSERT_EQ(results.size(), 4u);
  // 4 scenarios fit into one 6-iteration application run.
  EXPECT_EQ(engine.app_runs(), 1);
  for (const auto& r : results) {
    EXPECT_EQ(r.phase.count, 1);
    EXPECT_GT(r.phase.node_energy.value(), 0.0);
    EXPECT_FALSE(r.regions.empty());
  }
}

TEST_F(EngineTest, SchedulesMultipleRunsWhenScenariosExceedIterations) {
  SearchSpace space;
  space.add_parameter(core_freq_parameter(node_.spec().core_grid.values()));
  EngineOptions opts;
  opts.measurement_noise = 0.0;
  ExperimentsEngine engine(node_, app_,
                           instr::InstrumentationFilter::instrument_all(),
                           opts);
  const Seconds t0 = node_.now();
  const auto results = engine.run(space.exhaustive(), base_);
  EXPECT_EQ(results.size(), 14u);
  EXPECT_EQ(engine.app_runs(), 3);  // ceil(14 / 6)
  // The experiments' simulated time is charged to the node's clock.
  EXPECT_GT((node_.now() - t0).value(), 0.0);
}

TEST_F(EngineTest, MeasurementsReflectConfiguration) {
  std::vector<Scenario> scenarios;
  scenarios.push_back(config_to_scenario(
      0, SystemConfig{24, CoreFreq::mhz(1200), UncoreFreq::mhz(1500)}));
  scenarios.push_back(config_to_scenario(
      1, SystemConfig{24, CoreFreq::mhz(2500), UncoreFreq::mhz(1500)}));
  EngineOptions opts;
  opts.measurement_noise = 0.0;
  ExperimentsEngine engine(node_, app_,
                           instr::InstrumentationFilter::instrument_all(),
                           opts);
  const auto results = engine.run(scenarios, base_);
  // Lulesh is compute-bound: 1.2 GHz must be much slower than 2.5 GHz.
  EXPECT_GT(results[0].phase.time.value(),
            results[1].phase.time.value() * 1.5);
}

TEST_F(EngineTest, BestSelectorsUseObjective) {
  SearchSpace space;
  space.add_parameter(omp_threads_parameter(12, 24, 4));
  EngineOptions opts;
  opts.measurement_noise = 0.0;
  ExperimentsEngine engine(node_, app_,
                           instr::InstrumentationFilter::instrument_all(),
                           opts);
  const auto results = engine.run(space.exhaustive(), base_);

  const EnergyObjective energy;
  const auto& best = ExperimentsEngine::best_phase(results, energy);
  for (const auto& r : results)
    EXPECT_LE(energy.evaluate(best.phase), energy.evaluate(r.phase));

  const auto per_region = ExperimentsEngine::best_per_region(results, energy);
  EXPECT_EQ(per_region.size(), app_.regions().size());
  for (const auto& [region, sr] : per_region) {
    for (const auto& r : results) {
      EXPECT_LE(energy.evaluate(sr->regions.at(region)),
                energy.evaluate(r.regions.at(region)))
          << region;
    }
  }
}

TEST_F(EngineTest, JobCountDoesNotChangeResults) {
  // Default jitter and measurement noise stay ON so the per-chunk RNG
  // keying is actually exercised; 8 scenarios over 6-iteration runs = 2
  // concurrent chunks.
  auto run_with_jobs = [](int jobs) {
    hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(5));
    const auto app =
        workload::BenchmarkSuite::by_name("Lulesh").with_iterations(6);
    SearchSpace space;
    space.add_parameter(omp_threads_parameter(12, 24, 4));
    space.add_parameter(
        core_freq_parameter({CoreFreq::mhz(1600), CoreFreq::mhz(2500)}));
    EngineOptions opts;
    opts.jobs = jobs;
    ExperimentsEngine engine(node, app,
                             instr::InstrumentationFilter::instrument_all(),
                             opts);
    return engine.run(space.exhaustive(),
                      SystemConfig{24, CoreFreq::mhz(2000),
                                   UncoreFreq::mhz(1500)});
  };
  const auto serial = run_with_jobs(1);
  const auto wide = run_with_jobs(8);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].scenario.id, wide[i].scenario.id);
    // Bitwise-equal measurements, not just approximately equal.
    EXPECT_EQ(serial[i].phase.node_energy.value(),
              wide[i].phase.node_energy.value());
    EXPECT_EQ(serial[i].phase.cpu_energy.value(),
              wide[i].phase.cpu_energy.value());
    EXPECT_EQ(serial[i].phase.time.value(), wide[i].phase.time.value());
    ASSERT_EQ(serial[i].regions.size(), wide[i].regions.size());
    for (const auto& [region, m] : serial[i].regions) {
      const auto& w = wide[i].regions.at(region);
      EXPECT_EQ(m.node_energy.value(), w.node_energy.value()) << region;
      EXPECT_EQ(m.time.value(), w.time.value()) << region;
      EXPECT_EQ(m.count, w.count) << region;
    }
  }
}

TEST(ScenarioSchedulerTest, ResetsActiveScenarioOutsideSchedule) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  instr::ExecutionContext ctx(node);
  const SystemConfig cfg{24, CoreFreq::mhz(2000), UncoreFreq::mhz(1500)};
  ScenarioScheduler::Schedule schedule;
  schedule.emplace_back(0, cfg);  // only iteration 0 is scheduled

  std::map<std::int64_t, ScenarioResult> buckets;
  ScenarioResult seed;
  seed.scenario.id = 0;
  seed.config = cfg;
  buckets.emplace(0, seed);
  Rng rng(1);
  ScenarioScheduler scheduler(ctx, schedule, buckets, rng, 0.0);

  auto phase_enter = [&](int iteration) {
    instr::RegionEnter e;
    e.region = "PHASE";
    e.type = instr::RegionType::kPhase;
    e.iteration = iteration;
    scheduler.on_enter(e);
  };
  auto region_exit = [&](int iteration) {
    instr::RegionExit e;
    e.region = "work";
    e.type = instr::RegionType::kFunction;
    e.iteration = iteration;
    e.enter_time = Seconds(0);
    e.exit_time = Seconds(1);
    e.node_energy = Joules(10);
    e.cpu_energy = Joules(5);
    scheduler.on_exit(e);
  };

  phase_enter(0);
  region_exit(0);
  ASSERT_EQ(buckets.at(0).regions.at("work").count, 1);

  // Regression: an iteration past the schedule must deactivate measurement;
  // previously its measurements were silently attributed to scenario 0.
  phase_enter(1);
  region_exit(1);
  EXPECT_EQ(buckets.at(0).regions.at("work").count, 1);
  EXPECT_DOUBLE_EQ(buckets.at(0).regions.at("work").node_energy.value(),
                   10.0);

  // Re-entering a scheduled iteration resumes bucketing.
  phase_enter(0);
  region_exit(0);
  EXPECT_EQ(buckets.at(0).regions.at("work").count, 2);
}

TEST_F(EngineTest, AveragesOverRepeatedIterations) {
  std::vector<Scenario> scenarios{config_to_scenario(
      0, SystemConfig{24, CoreFreq::mhz(2000), UncoreFreq::mhz(1500)})};
  EngineOptions opts;
  opts.iterations_per_scenario = 3;
  opts.measurement_noise = 0.0;
  ExperimentsEngine engine(node_, app_,
                           instr::InstrumentationFilter::instrument_all(),
                           opts);
  const auto results = engine.run(scenarios, base_);
  EXPECT_EQ(results[0].phase.count, 3);
}

}  // namespace
}  // namespace ecotune::ptf
