// Tests of the common Tuner seam (src/tuners/ + ptf/tuner):
//  - the registry's vocabulary, sorted listings, and unknown-name error,
//  - bit-for-bit equivalence: StaticTuner/ExhaustiveTuner/DTA behind the
//    Tuner interface reproduce their pre-refactor rich results on fixed
//    seeds (same nodes, same options, exact double compares),
//  - QLearningTuner determinism, jobs-independence by construction, and
//    warm-restart from the measurement store with zero misses,
//  - the governor baselines' determinism and single-run acquisition cost,
//  - Session::tune plumbing (objective threading, unknown-name rejection).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "api/session.hpp"
#include "baseline/exhaustive_tuner.hpp"
#include "baseline/static_tuner.hpp"
#include "common/error.hpp"
#include "store/measurement_store.hpp"
#include "tuners/governor_tuner.hpp"
#include "tuners/qlearning_tuner.hpp"
#include "tuners/registry.hpp"
#include "workload/suite.hpp"

namespace ecotune {
namespace {

namespace fs = std::filesystem;

/// Fresh temp directory per test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("ecotune_tuners_" + tag + "_" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

hwsim::NodeSimulator test_node(std::uint64_t seed = 42) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(seed));
  node.set_jitter(0.0);
  return node;
}

baseline::StaticTunerOptions coarse_static() {
  baseline::StaticTunerOptions opts;
  opts.thread_counts = {16, 24};
  opts.cf_stride = 3;
  opts.ucf_stride = 3;
  opts.phase_iterations = 1;
  return opts;
}

baseline::ExhaustiveTunerOptions coarse_exhaustive() {
  baseline::ExhaustiveTunerOptions opts;
  opts.thread_counts = {16, 24};
  opts.cf_stride = 3;
  opts.ucf_stride = 3;
  return opts;
}

tuners::QLearningOptions short_qlearn() {
  tuners::QLearningOptions opts;
  opts.episodes = 12;
  opts.phase_iterations = 1;
  return opts;
}

// Reduced-cost acquisition so the DTA equivalence test trains in seconds.
model::AcquisitionOptions tiny_acquisition() {
  model::AcquisitionOptions opts;
  opts.thread_counts = {24};
  opts.cf_stride = 4;
  opts.ucf_stride = 4;
  opts.phase_iterations = 1;
  return opts;
}

const model::EnergyModel& tiny_model() {
  static const model::EnergyModel trained = [] {
    api::Session session(
        api::SessionConfig{}.seed(77).epochs(1).jobs(0).acquisition(
            tiny_acquisition()));
    return session.train_model();
  }();
  return trained;
}

// -- Registry ---------------------------------------------------------------

/// The six strategies default_registry() registers, sorted.
const std::vector<std::string> kStrategyNames{
    "conservative", "dta", "exhaustive", "ondemand", "qlearn", "static"};

TEST(TunerRegistry, RegistersAllSixStrategiesSorted) {
  const auto& registry = tuners::default_registry();
  EXPECT_EQ(registry.names_joined(),
            "conservative, dta, exhaustive, ondemand, qlearn, static");
  for (const auto& name : kStrategyNames)
    EXPECT_TRUE(registry.contains(name)) << name;

  EXPECT_FALSE(registry.contains("annealing"));
}

TEST(TunerRegistry, MadeTunersReportTheirRegistryName) {
  auto node = test_node();
  tuners::TunerContext ctx;
  ctx.node = &node;
  ctx.model = []() -> const model::EnergyModel& { return tiny_model(); };
  for (const auto& name : kStrategyNames) {
    const auto tuner = tuners::default_registry().make(name, ctx);
    EXPECT_EQ(tuner->name(), name);
  }
}

TEST(TunerRegistry, UnknownNameThrowsWithRegisteredList) {
  auto node = test_node();
  tuners::TunerContext ctx;
  ctx.node = &node;
  try {
    (void)tuners::default_registry().make("annealing", ctx);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("annealing"), std::string::npos);
    EXPECT_NE(what.find("qlearn"), std::string::npos);
    EXPECT_NE(what.find("static"), std::string::npos);
  }
}

// -- Pre-refactor equivalence (bit-for-bit on fixed seeds) ------------------

TEST(TunerEquivalence, StaticBehindInterfaceMatchesDirectCall) {
  const auto app = workload::BenchmarkSuite::by_name("Lulesh");

  auto direct_node = test_node(1);
  baseline::StaticTuner direct(direct_node, coarse_static());
  const auto rich = direct.tune(app, ptf::EnergyObjective{});

  auto seam_node = test_node(1);
  baseline::StaticTuner seam(seam_node, coarse_static());
  Tuner& tuner = seam;
  const TuningOutcome outcome = tuner.tune(TuningRequest{app, "energy"});

  EXPECT_EQ(outcome.tuner, "static");
  EXPECT_EQ(outcome.best.threads, rich.best.threads);
  EXPECT_EQ(outcome.best.core.as_mhz(), rich.best.core.as_mhz());
  EXPECT_EQ(outcome.best.uncore.as_mhz(), rich.best.uncore.as_mhz());
  EXPECT_EQ(outcome.scenarios_evaluated, rich.runs);
  EXPECT_EQ(outcome.app_runs, rich.runs);
  // Exact double equality: the interface path must replay the identical
  // simulation, not a merely similar one.
  EXPECT_EQ(outcome.tuning_time.value(), rich.search_time.value());
  EXPECT_EQ(outcome.best_measurement.node_energy.value(),
            rich.best_point.node_energy.value());
  EXPECT_EQ(outcome.best_measurement.time.value(),
            rich.best_point.time.value());
}

TEST(TunerEquivalence, ExhaustiveBehindInterfaceMatchesDirectCall) {
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(1);

  auto direct_node = test_node(1);
  baseline::ExhaustiveTuner direct(direct_node, coarse_exhaustive());
  const auto rich = direct.tune(app);

  auto seam_node = test_node(1);
  baseline::ExhaustiveTuner seam(seam_node, coarse_exhaustive());
  Tuner& tuner = seam;
  const TuningOutcome outcome = tuner.tune(TuningRequest{app, "energy"});

  EXPECT_EQ(outcome.tuner, "exhaustive");
  EXPECT_EQ(outcome.best.threads, rich.app_best.threads);
  EXPECT_EQ(outcome.best.core.as_mhz(), rich.app_best.core.as_mhz());
  EXPECT_EQ(outcome.best.uncore.as_mhz(), rich.app_best.uncore.as_mhz());
  EXPECT_EQ(outcome.scenarios_evaluated, rich.runs);
  EXPECT_EQ(outcome.tuning_time.value(), rich.search_time.value());
  ASSERT_EQ(outcome.region_best.size(), rich.region_best.size());
  for (const auto& [region, config] : rich.region_best) {
    const auto it = outcome.region_best.find(region);
    ASSERT_NE(it, outcome.region_best.end()) << region;
    EXPECT_EQ(it->second.threads, config.threads);
    EXPECT_EQ(it->second.core.as_mhz(), config.core.as_mhz());
    EXPECT_EQ(it->second.uncore.as_mhz(), config.uncore.as_mhz());
  }
}

TEST(TunerEquivalence, DtaAdapterMatchesDirectPluginRun) {
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(3);
  const auto& trained = tiny_model();

  auto direct_node = test_node(7);
  core::DvfsUfsPlugin plugin(trained, core::DvfsUfsPlugin::Options{});
  const core::DtaResult direct = plugin.run_dta(app, direct_node);

  auto seam_node = test_node(7);
  tuners::DtaTuner adapter(
      seam_node, []() -> const model::EnergyModel& { return tiny_model(); });
  const TuningOutcome via_seam = adapter.tune(TuningRequest{app, "energy"});

  // The outcome is a field-by-field mapping of the full analysis result.
  EXPECT_EQ(via_seam.tuner, "dta");
  EXPECT_EQ(via_seam.objective, "energy");
  EXPECT_EQ(via_seam.best, direct.phase_best);
  EXPECT_EQ(via_seam.region_best, direct.region_best);
  EXPECT_EQ(via_seam.scenarios_evaluated,
            direct.thread_scenarios + direct.analysis_runs +
                direct.frequency_scenarios);
  EXPECT_EQ(via_seam.app_runs, direct.app_runs);
  EXPECT_EQ(via_seam.tuning_time.value(), direct.tuning_time.value());
}

// -- Q-learning -------------------------------------------------------------

TEST(QLearningTuner, IsDeterministicAcrossFreshInstances) {
  const auto app = workload::BenchmarkSuite::by_name("Mcb");

  auto node_a = test_node(5);
  tuners::QLearningTuner a(node_a, short_qlearn());
  const TuningOutcome out_a = a.tune(TuningRequest{app, "energy"});

  auto node_b = test_node(5);
  tuners::QLearningTuner b(node_b, short_qlearn());
  const TuningOutcome out_b = b.tune(TuningRequest{app, "energy"});

  EXPECT_EQ(out_a.to_json().dump(-1), out_b.to_json().dump(-1));
  EXPECT_EQ(out_a.tuner, "qlearn");
  EXPECT_EQ(out_a.scenarios_evaluated, short_qlearn().episodes);
  EXPECT_EQ(out_a.app_runs, short_qlearn().episodes);
  EXPECT_GT(out_a.tuning_time.value(), 0.0);
  EXPECT_GT(out_a.best_measurement.count, 0);
}

TEST(QLearningTuner, RepeatedCallsDecorrelateButStayInGrid) {
  const auto app = workload::BenchmarkSuite::by_name("Mcb");
  auto node = test_node(5);
  const auto& spec = node.spec();
  tuners::QLearningTuner tuner(node, short_qlearn());
  const auto first = tuner.tune(TuningRequest{app, "energy"});
  const auto second = tuner.tune(TuningRequest{app, "energy"});
  for (const auto* out : {&first, &second}) {
    EXPECT_GE(out->best.core.as_mhz(), spec.core_grid.min().as_mhz());
    EXPECT_LE(out->best.core.as_mhz(), spec.core_grid.max().as_mhz());
    EXPECT_GE(out->best.uncore.as_mhz(), spec.uncore_grid.min().as_mhz());
    EXPECT_LE(out->best.uncore.as_mhz(), spec.uncore_grid.max().as_mhz());
  }
}

TEST(QLearningTuner, WarmRestartReplaysWithZeroMisses) {
  const auto app = workload::BenchmarkSuite::by_name("Mcb");
  TempDir dir("qlearn_warm");

  std::string cold_dump;
  {
    store::MeasurementStore store;
    store.open(dir.path(), store::StoreMode::kReadWrite, "qlearn_test");
    auto node = test_node(5);
    tuners::QLearningOptions opts = short_qlearn();
    opts.store = &store;
    tuners::QLearningTuner tuner(node, opts);
    cold_dump = tuner.tune(TuningRequest{app, "energy"}).to_json().dump(-1);
    EXPECT_EQ(store.stats().hits, 0);
    EXPECT_EQ(store.stats().misses, opts.episodes);
  }

  store::MeasurementStore store;
  store.open(dir.path(), store::StoreMode::kReadWrite, "qlearn_test");
  auto node = test_node(5);
  tuners::QLearningOptions opts = short_qlearn();
  opts.store = &store;
  tuners::QLearningTuner tuner(node, opts);
  const std::string warm_dump =
      tuner.tune(TuningRequest{app, "energy"}).to_json().dump(-1);

  EXPECT_EQ(warm_dump, cold_dump);
  EXPECT_EQ(store.stats().hits, opts.episodes);
  EXPECT_EQ(store.stats().misses, 0);
}

TEST(QLearningTuner, HyperparametersAreCacheRelevant) {
  // A changed episode schedule must not replay the old trajectory: the
  // fingerprint pins every hyperparameter, so a different count re-runs.
  const auto app = workload::BenchmarkSuite::by_name("Mcb");
  TempDir dir("qlearn_fp");

  {
    store::MeasurementStore store;
    store.open(dir.path(), store::StoreMode::kReadWrite, "qlearn_test");
    auto node = test_node(5);
    tuners::QLearningOptions opts = short_qlearn();
    opts.store = &store;
    tuners::QLearningTuner tuner(node, opts);
    (void)tuner.tune(TuningRequest{app, "energy"});
  }

  store::MeasurementStore store;
  store.open(dir.path(), store::StoreMode::kReadWrite, "qlearn_test");
  auto node = test_node(5);
  tuners::QLearningOptions opts = short_qlearn();
  opts.epsilon_decay = 0.5;  // different exploration schedule
  opts.store = &store;
  tuners::QLearningTuner tuner(node, opts);
  (void)tuner.tune(TuningRequest{app, "energy"});
  EXPECT_EQ(store.stats().hits, 0);
  EXPECT_EQ(store.stats().misses, opts.episodes);
}

// -- Governor baselines -----------------------------------------------------

TEST(GovernorTuner, OndemandIsDeterministicAndSingleRun) {
  const auto app = workload::BenchmarkSuite::by_name("Lulesh");

  auto node_a = test_node(9);
  tuners::GovernorTuner a(node_a, tuners::GovernorPolicy::kOndemand);
  const TuningOutcome out_a = a.tune(TuningRequest{app, "energy"});

  auto node_b = test_node(9);
  tuners::GovernorTuner b(node_b, tuners::GovernorPolicy::kOndemand);
  const TuningOutcome out_b = b.tune(TuningRequest{app, "energy"});

  EXPECT_EQ(out_a.to_json().dump(-1), out_b.to_json().dump(-1));
  EXPECT_EQ(out_a.tuner, "ondemand");
  EXPECT_EQ(out_a.app_runs, 1);  // governors tune inside one run
  EXPECT_GE(out_a.scenarios_evaluated, 1);
  EXPECT_TRUE(out_a.region_best.empty());
  // cpufreq governors manage the core clock only.
  const auto& spec = node_a.spec();
  EXPECT_EQ(out_a.best.threads, spec.total_cores());
  EXPECT_EQ(out_a.best.uncore.as_mhz(), spec.default_uncore.as_mhz());
}

TEST(GovernorTuner, ConservativeStepsAreBoundedByFreqStep) {
  const auto app = workload::BenchmarkSuite::by_name("Mcb");
  auto node = test_node(9);
  tuners::GovernorTuner tuner(node, tuners::GovernorPolicy::kConservative);
  const TuningOutcome out = tuner.tune(TuningRequest{app, "energy"});
  EXPECT_EQ(out.tuner, "conservative");
  EXPECT_EQ(out.app_runs, 1);
  const auto& spec = node.spec();
  EXPECT_GE(out.best.core.as_mhz(), spec.core_grid.min().as_mhz());
  EXPECT_LE(out.best.core.as_mhz(), spec.core_grid.max().as_mhz());
}

TEST(GovernorTuner, WarmRestartReplaysWholeRunWithZeroMisses) {
  const auto app = workload::BenchmarkSuite::by_name("Lulesh");
  TempDir dir("governor_warm");

  std::string cold_dump;
  {
    store::MeasurementStore store;
    store.open(dir.path(), store::StoreMode::kReadWrite, "governor_test");
    auto node = test_node(9);
    tuners::GovernorOptions opts;
    opts.store = &store;
    tuners::GovernorTuner tuner(node, tuners::GovernorPolicy::kOndemand,
                                opts);
    cold_dump = tuner.tune(TuningRequest{app, "energy"}).to_json().dump(-1);
  }

  store::MeasurementStore store;
  store.open(dir.path(), store::StoreMode::kReadWrite, "governor_test");
  auto node = test_node(9);
  tuners::GovernorOptions opts;
  opts.store = &store;
  tuners::GovernorTuner tuner(node, tuners::GovernorPolicy::kOndemand, opts);
  const std::string warm_dump =
      tuner.tune(TuningRequest{app, "energy"}).to_json().dump(-1);

  EXPECT_EQ(warm_dump, cold_dump);
  EXPECT_GE(store.stats().hits, 1);
  EXPECT_EQ(store.stats().misses, 0);
}

// -- Session plumbing -------------------------------------------------------

TEST(SessionTune, ThreadsObjectiveAndEqualCallsReturnEqualBytes) {
  api::Session session(api::SessionConfig{}.seed(11));
  const auto app = workload::BenchmarkSuite::by_name("Mcb");

  const TuningOutcome capped = session.tune("qlearn", app, "power_cap:250");
  EXPECT_EQ(capped.tuner, "qlearn");
  EXPECT_EQ(capped.objective, "power_cap:250");

  // Every call runs a fresh strategy on a clone of the tuning node keyed by
  // its arguments, so an equal second call replays the first exactly.
  const TuningOutcome again = session.tune("qlearn", app, "power_cap:250");
  EXPECT_EQ(again.to_json().dump(-1), capped.to_json().dump(-1));
  // An explicit key is a different noise stream with the same contract.
  const TuningOutcome keyed =
      session.tune("qlearn", app, "power_cap:250", "other");
  EXPECT_EQ(keyed.objective, "power_cap:250");
  EXPECT_EQ(session.tune("qlearn", app, "power_cap:250", "other")
                .to_json()
                .dump(-1),
            keyed.to_json().dump(-1));
  // An empty objective means the session's, under the same key.
  EXPECT_EQ(session.tune("qlearn", app, "").to_json().dump(-1),
            session.tune("qlearn", app).to_json().dump(-1));
}

TEST(SessionTune, SessionsWithEqualConfigAgreeBitForBit) {
  const auto app = workload::BenchmarkSuite::by_name("Mcb");
  api::Session a(api::SessionConfig{}.seed(11));
  api::Session b(api::SessionConfig{}.seed(11));
  EXPECT_EQ(a.tune("qlearn", app).to_json().dump(-1),
            b.tune("qlearn", app).to_json().dump(-1));
}

TEST(SessionTune, UnknownStrategyNameThrowsConfigError) {
  api::Session session(api::SessionConfig{}.seed(11));
  const auto app = workload::BenchmarkSuite::by_name("Mcb");
  EXPECT_THROW((void)session.tune("annealing", app), ConfigError);
}

}  // namespace
}  // namespace ecotune
