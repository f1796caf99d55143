#include <gtest/gtest.h>

#include "core/evaluation.hpp"
#include "model/dataset.hpp"
#include "workload/suite.hpp"

namespace ecotune::core {
namespace {

/// One trained model shared by the evaluation tests. Each test measures on
/// its own clone of the training node, keyed by the test's name, so no test
/// sees a clock or noise stream that an earlier test advanced: the results
/// do not depend on which tests ran before in the same process.
class EvaluationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    train_node_ =
        new hwsim::NodeSimulator(hwsim::haswell_ep_spec(), 0, Rng(3));
    train_node_->set_jitter(0.001);
    model::AcquisitionOptions opts;
    opts.phase_iterations = 2;
    model::DataAcquisition acq(*train_node_, opts);
    trained_ = new model::EnergyModel();
    trained_->train(acq.acquire(workload::BenchmarkSuite::training_set()),
                    10);
  }
  static void TearDownTestSuite() {
    delete trained_;
    delete train_node_;
    trained_ = nullptr;
    train_node_ = nullptr;
  }

  static SavingsOptions fast_options() {
    SavingsOptions opts;
    opts.repeats = 2;
    opts.static_search.thread_counts = {16, 24};
    opts.static_search.cf_stride = 2;
    opts.static_search.ucf_stride = 2;
    return opts;
  }

  static hwsim::NodeSimulator* train_node_;
  static model::EnergyModel* trained_;

  hwsim::NodeSimulator node_ = train_node_->clone(
      ::testing::UnitTest::GetInstance()->current_test_info()->name());
};

hwsim::NodeSimulator* EvaluationTest::train_node_ = nullptr;
model::EnergyModel* EvaluationTest::trained_ = nullptr;

TEST_F(EvaluationTest, RowIsInternallyConsistent) {
  SavingsEvaluator evaluator(node_, *trained_, fast_options());
  const auto row = evaluator.evaluate(
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(6));

  EXPECT_EQ(row.benchmark, "Lulesh");
  // Time decomposition: total dynamic delta = config effect + overhead.
  EXPECT_NEAR(row.dynamic_time_pct,
              row.perf_reduction_config_pct + row.overhead_pct, 0.75);
  // Overhead is a pure cost.
  EXPECT_LT(row.overhead_pct, 0.0);
  // Savings magnitudes are sane percentages.
  for (double v : {row.static_job_energy_pct, row.static_cpu_energy_pct,
                   row.dynamic_job_energy_pct, row.dynamic_cpu_energy_pct}) {
    EXPECT_GT(v, -50.0);
    EXPECT_LT(v, 60.0);
  }
  // DTA details are attached.
  EXPECT_FALSE(row.dta.region_best.empty());
  EXPECT_GT(row.dynamic_switches, 0);
}

TEST_F(EvaluationTest, StaticConfigComesFromSearch) {
  SavingsEvaluator evaluator(node_, *trained_, fast_options());
  const auto row = evaluator.evaluate(
      workload::BenchmarkSuite::by_name("miniMD").with_iterations(6));
  // The static search explores {16,24} threads at strided frequencies;
  // the returned config must be on the searched lattice.
  EXPECT_TRUE(row.static_config.threads == 16 ||
              row.static_config.threads == 24);
  EXPECT_EQ((row.static_config.core.as_mhz() - 1200) % 200, 0);
  EXPECT_EQ((row.static_config.uncore.as_mhz() - 1300) % 200, 0);
}

TEST_F(EvaluationTest, ObjectiveIsForwardedToThePlugin) {
  SavingsOptions opts = fast_options();
  opts.plugin.config.objective = "edp";
  SavingsEvaluator evaluator(node_, *trained_, opts);
  const auto row = evaluator.evaluate(
      workload::BenchmarkSuite::by_name("Mcb").with_iterations(6));

  SavingsOptions energy_opts = fast_options();
  SavingsEvaluator energy_eval(node_, *trained_, energy_opts);
  const auto energy_row = energy_eval.evaluate(
      workload::BenchmarkSuite::by_name("Mcb").with_iterations(6));

  // EDP tuning protects run time relative to pure-energy tuning.
  EXPECT_GE(row.dynamic_time_pct, energy_row.dynamic_time_pct - 1.0);
}

TEST_F(EvaluationTest, ZeroMeasurementFailsLoudlyInsteadOfNaN) {
  SavingsEvaluator evaluator(node_, *trained_, fast_options());
  // A zero-iteration run measures zero time and energy; savings relative to
  // it are undefined and must throw instead of propagating NaN/Inf.
  EXPECT_THROW((void)evaluator.evaluate(
                   workload::BenchmarkSuite::by_name("Lulesh")
                       .with_iterations(0)),
               PreconditionError);
}

TEST_F(EvaluationTest, JobCountDoesNotChangeRows) {
  SavingsOptions opts = fast_options();
  opts.repeats = 1;
  std::vector<workload::Benchmark> apps{
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(6),
      workload::BenchmarkSuite::by_name("Mcb").with_iterations(6)};

  opts.jobs = 1;
  SavingsEvaluator serial_eval(node_, *trained_, opts);
  const auto serial = serial_eval.evaluate_all(apps);
  opts.jobs = 4;
  SavingsEvaluator wide_eval(node_, *trained_, opts);
  const auto wide = wide_eval.evaluate_all(apps);

  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(wide.size(), 2u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].benchmark, wide[i].benchmark);
    EXPECT_EQ(serial[i].static_config, wide[i].static_config);
    // Bitwise-identical percentages: rows are noise-keyed by benchmark,
    // not by worker or completion order.
    EXPECT_EQ(serial[i].static_job_energy_pct, wide[i].static_job_energy_pct);
    EXPECT_EQ(serial[i].static_cpu_energy_pct, wide[i].static_cpu_energy_pct);
    EXPECT_EQ(serial[i].dynamic_job_energy_pct,
              wide[i].dynamic_job_energy_pct);
    EXPECT_EQ(serial[i].dynamic_cpu_energy_pct,
              wide[i].dynamic_cpu_energy_pct);
    EXPECT_EQ(serial[i].dynamic_time_pct, wide[i].dynamic_time_pct);
    EXPECT_EQ(serial[i].overhead_pct, wide[i].overhead_pct);
    EXPECT_EQ(serial[i].dynamic_switches, wide[i].dynamic_switches);
  }
}

TEST_F(EvaluationTest, MoreRepeatsReduceJitterInReportedSavings) {
  SavingsOptions one = fast_options();
  one.repeats = 1;
  SavingsOptions many = fast_options();
  many.repeats = 6;

  const auto app =
      workload::BenchmarkSuite::by_name("BEM4I").with_iterations(5);
  // Evaluate twice per setting; the spread of the averaged estimate must
  // not explode (weak property: both within a plausible band).
  SavingsEvaluator e1(node_, *trained_, one);
  SavingsEvaluator e2(node_, *trained_, many);
  const auto r1 = e1.evaluate(app);
  const auto r2 = e2.evaluate(app);
  EXPECT_NEAR(r1.static_cpu_energy_pct, r2.static_cpu_energy_pct, 5.0);
}

}  // namespace
}  // namespace ecotune::core
