#include <gtest/gtest.h>

#include <algorithm>

#include "model/dataset.hpp"
#include "model/energy_model.hpp"
#include "model/features.hpp"
#include "model/regression_model.hpp"
#include "stats/crossval.hpp"
#include "stats/metrics.hpp"
#include "workload/suite.hpp"

namespace ecotune::model {
namespace {

AcquisitionOptions fast_options() {
  AcquisitionOptions opts;
  opts.thread_counts = {24};
  opts.cf_stride = 3;
  opts.ucf_stride = 3;
  opts.phase_iterations = 2;
  return opts;
}

TEST(Features, PaperSelectionIsSevenCounters) {
  const auto& events = paper_feature_events();
  EXPECT_EQ(events.size(), 7u);
  const auto names = feature_names(events);
  ASSERT_EQ(names.size(), 9u);
  EXPECT_EQ(names.front(), "PAPI_BR_NTK");
  EXPECT_EQ(names[7], "core_freq_ghz");
  EXPECT_EQ(names[8], "uncore_freq_ghz");
}

TEST(Features, BuildFeaturesOrdersAndAppendsFrequencies) {
  std::map<std::string, double> rates;
  for (auto e : paper_feature_events())
    rates[std::string(hwsim::pmu_event_name(e))] = 42.0;
  const auto f = build_features(rates, paper_feature_events(),
                                CoreFreq::mhz(2100), UncoreFreq::mhz(1700));
  ASSERT_EQ(f.size(), 9u);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_DOUBLE_EQ(f[i], 42.0);
  EXPECT_DOUBLE_EQ(f[7], 2.1);
  EXPECT_DOUBLE_EQ(f[8], 1.7);
}

TEST(Features, BuildFeaturesThrowsOnMissingCounter) {
  std::map<std::string, double> rates;
  EXPECT_THROW(build_features(rates, paper_feature_events(),
                              CoreFreq::mhz(2000), UncoreFreq::mhz(1500)),
               PreconditionError);
}

class AcquisitionTest : public ::testing::Test {
 protected:
  AcquisitionTest() : node_(hwsim::haswell_ep_spec(), 0, Rng(1)) {
    node_.set_jitter(0.001);
  }
  hwsim::NodeSimulator node_;
};

TEST_F(AcquisitionTest, CounterRatesCoverRequestedEvents) {
  DataAcquisition acq(node_, fast_options());
  const auto rates = acq.collect_counter_rates(
      workload::BenchmarkSuite::by_name("Lulesh"), 24,
      paper_feature_events());
  EXPECT_EQ(rates.size(), 7u);
  for (auto e : paper_feature_events()) {
    const std::string name(hwsim::pmu_event_name(e));
    ASSERT_TRUE(rates.count(name)) << name;
    EXPECT_GT(rates.at(name), 0.0) << name;
  }
  // Multiplexing: 7 counters at 4 per run = 2 application runs.
  EXPECT_EQ(acq.runs_performed(), 2);
}

TEST_F(AcquisitionTest, DatasetHasGridStructureAndCalibratedLabels) {
  DataAcquisition acq(node_, fast_options());
  const auto ds =
      acq.acquire({workload::BenchmarkSuite::by_name("Lulesh")});
  const std::size_t n_cf = (14 + 2) / 3;   // ceil(14/3)
  const std::size_t n_ucf = (18 + 2) / 3;  // ceil(18/3)
  EXPECT_EQ(ds.samples.size(), n_cf * n_ucf);
  EXPECT_EQ(ds.feature_names.size(), 9u);

  // The sample at the calibration frequencies has Enorm ~ 1.
  for (const auto& s : ds.samples) {
    EXPECT_GT(s.normalized_energy, 0.3);
    EXPECT_LT(s.normalized_energy, 3.0);
    EXPECT_NEAR(s.normalized_power * s.normalized_time, s.normalized_energy,
                1e-9);
    if (s.cf == CoreFreq::mhz(2000) && s.ucf == UncoreFreq::mhz(1500)) {
      EXPECT_NEAR(s.normalized_energy, 1.0, 0.05);
    }
  }
}

TEST_F(AcquisitionTest, DatasetSubsetOperations) {
  DataAcquisition acq(node_, fast_options());
  const auto ds = acq.acquire({workload::BenchmarkSuite::by_name("Lulesh"),
                               workload::BenchmarkSuite::by_name("Mcb")});
  std::vector<std::size_t> lulesh_idx, mcb_idx;
  for (std::size_t i = 0; i < ds.samples.size(); ++i)
    (ds.samples[i].benchmark == "Lulesh" ? lulesh_idx : mcb_idx).push_back(i);
  const auto lulesh = ds.subset(lulesh_idx);
  const auto mcb = ds.subset(mcb_idx);
  EXPECT_EQ(lulesh.samples.size() + mcb.samples.size(), ds.samples.size());
  for (const auto& s : mcb.samples) EXPECT_EQ(s.benchmark, "Mcb");

  for (const auto& s : lulesh.samples) EXPECT_EQ(s.benchmark, "Lulesh");

  const auto sub = ds.subset({0, 1, 2});
  EXPECT_EQ(sub.samples.size(), 3u);
  EXPECT_THROW(ds.subset({ds.samples.size()}), PreconditionError);

  const auto groups = ds.groups();
  EXPECT_EQ(std::count(groups.begin(), groups.end(), "Lulesh"),
            static_cast<long>(lulesh.samples.size()));
}

TEST_F(AcquisitionTest, MemoryBoundLabelsShapeDiffersFromComputeBound) {
  DataAcquisition acq(node_, fast_options());
  const auto ds = acq.acquire({workload::BenchmarkSuite::by_name("miniMD"),
                               workload::BenchmarkSuite::by_name("Mcb")});
  // For compute-bound miniMD, the lowest core frequency at fixed uncore is
  // worse (higher Enorm) than the highest; for memory-bound Mcb the energy
  // at max CF is worse relative to its own best than miniMD's.
  auto enorm = [&](const std::string& b, int cf, int ucf) {
    for (const auto& s : ds.samples) {
      if (s.benchmark == b && s.cf == CoreFreq::mhz(cf) &&
          s.ucf == UncoreFreq::mhz(ucf))
        return s.normalized_energy;
    }
    ADD_FAILURE() << "sample not found";
    return 0.0;
  };
  // miniMD: Enorm(1.2 GHz) >> Enorm(2.4 GHz) at mid uncore (compute bound).
  EXPECT_GT(enorm("miniMD", 1200, 2200), enorm("miniMD", 2400, 2200));
  // Mcb: raising uncore at fixed CF reduces energy (memory bound).
  EXPECT_GT(enorm("Mcb", 1800, 1300), enorm("Mcb", 1800, 2800));
}

TEST_F(AcquisitionTest, RegionCounterRatesCoverSignificantRegions) {
  DataAcquisition acq(node_, fast_options());
  const auto& app = workload::BenchmarkSuite::by_name("Lulesh");
  const auto rates =
      acq.collect_region_counter_rates(app, 24, paper_feature_events());
  // Every region of the app appears (instrumentation covers all of them).
  EXPECT_EQ(rates.size(), app.regions().size());
  for (const auto& [region, counters] : rates) {
    EXPECT_EQ(counters.size(), 7u) << region;
    for (const auto& [name, rate] : counters)
      EXPECT_GT(rate, 0.0) << region << '/' << name;
  }
  // Rates differ across regions (they are per-region, not phase copies).
  const auto& a = rates.at("IntegrateStressForElems");
  const auto& b = rates.at("ApplyMaterialPropertiesForElems");
  EXPECT_NE(a.at("PAPI_LD_INS"), b.at("PAPI_LD_INS"));
}

TEST_F(AcquisitionTest, SurveyProducesAllPresetRates) {
  AcquisitionOptions opts = fast_options();
  DataAcquisition acq(node_, opts);
  const auto survey = acq.survey_counters(
      {workload::BenchmarkSuite::by_name("Lulesh"),
       workload::BenchmarkSuite::by_name("Mcb")});
  EXPECT_EQ(survey.rates.rows(), 2u);
  EXPECT_EQ(survey.rates.cols(), 56u);
  EXPECT_EQ(survey.benchmark.size(), 2u);
  for (double p : survey.mean_node_power) {
    EXPECT_GT(p, 100.0);
    EXPECT_LT(p, 500.0);
  }
}

class EnergyModelTest : public ::testing::Test {
 protected:
  EnergyModelTest() : node_(hwsim::haswell_ep_spec(), 0, Rng(1)) {
    node_.set_jitter(0.001);
    AcquisitionOptions opts;
    opts.thread_counts = {24};
    opts.cf_stride = 2;
    opts.ucf_stride = 2;
    opts.phase_iterations = 2;
    DataAcquisition acq(node_, opts);
    dataset_ = acq.acquire({workload::BenchmarkSuite::by_name("Lulesh"),
                            workload::BenchmarkSuite::by_name("Mcb"),
                            workload::BenchmarkSuite::by_name("miniMD"),
                            workload::BenchmarkSuite::by_name("MG"),
                            workload::BenchmarkSuite::by_name("BT"),
                            workload::BenchmarkSuite::by_name("CG")});
  }
  hwsim::NodeSimulator node_;
  EnergyDataset dataset_;
};

TEST_F(EnergyModelTest, FitsTrainingDataWell) {
  EnergyModel model;
  model.train(dataset_, 30);
  const auto pred = model.predict_all(dataset_);
  const auto truth = dataset_.labels();
  EXPECT_LT(stats::mape(truth, pred), 6.0);
}

TEST_F(EnergyModelTest, GeneralizesAcrossBenchmarks) {
  // Train on three benchmarks, test on the held-out one (one LOOCV step).
  EnergyDataset train, test;
  train.feature_names = dataset_.feature_names;
  test.feature_names = dataset_.feature_names;
  for (const auto& s : dataset_.samples) {
    (s.benchmark == "CG" ? test : train).samples.push_back(s);
  }
  EnergyModel model;
  model.train(train, 20);
  const auto pred = model.predict_all(test);
  // Thin training data (one thread count, strided grid, five benchmarks)
  // generalizes coarsely; the full-scale accuracy check lives in the
  // integration tests and bench/fig5_loocv_mape.
  EXPECT_LT(stats::mape(test.labels(), pred), 35.0);
}

TEST_F(EnergyModelTest, RecommendationIsGridArgmin) {
  EnergyModel model;
  model.train(dataset_, 20);
  AcquisitionOptions opts;
  opts.phase_iterations = 2;
  DataAcquisition acq(node_, opts);
  const auto rates = acq.collect_counter_rates(
      workload::BenchmarkSuite::by_name("Lulesh"), 24,
      paper_feature_events());

  const auto rec = model.recommend(rates, node_.spec());
  EXPECT_TRUE(node_.spec().core_grid.contains(rec.cf));
  EXPECT_TRUE(node_.spec().uncore_grid.contains(rec.ucf));
  // The recommendation matches the minimum of the predicted surface.
  double min_v = 1e300;
  for (auto cf : node_.spec().core_grid.values())
    for (auto ucf : node_.spec().uncore_grid.values())
      min_v = std::min(min_v, model.predict(build_features(
                                  rates, paper_feature_events(), cf, ucf)));
  EXPECT_DOUBLE_EQ(rec.predicted_normalized_energy, min_v);
}

TEST_F(EnergyModelTest, SerializationRoundTripPreservesPredictions) {
  EnergyModel model;
  model.train(dataset_, 10);
  const EnergyModel restored =
      EnergyModel::from_json(Json::parse(model.to_json().dump()));
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(restored.predict(dataset_.samples[i].features),
                     model.predict(dataset_.samples[i].features));
  }
}

TEST_F(EnergyModelTest, PredictBatchMatchesScalarBitwise) {
  // The whole-dataset batched path (one scaling pass, layer sweeps over the
  // full batch, ordered ensemble mean) must equal per-sample prediction
  // exactly, not approximately.
  EnergyModel model;
  model.train(dataset_, 5);
  const auto batch = model.predict_batch(dataset_.feature_matrix());
  ASSERT_EQ(batch.size(), dataset_.samples.size());
  const std::size_t check = std::min<std::size_t>(batch.size(), 100);
  for (std::size_t i = 0; i < check; ++i) {
    EXPECT_EQ(batch[i], model.predict(dataset_.samples[i].features))
        << "sample " << i;
  }
}

TEST_F(EnergyModelTest, RecommendManyMatchesIndividualRecommends) {
  EnergyModel model;
  model.train(dataset_, 10);
  AcquisitionOptions opts;
  opts.phase_iterations = 2;
  DataAcquisition acq(node_, opts);
  std::vector<std::map<std::string, double>> rate_sets;
  for (const char* name : {"Lulesh", "Mcb", "miniMD"}) {
    rate_sets.push_back(acq.collect_counter_rates(
        workload::BenchmarkSuite::by_name(name), 24,
        paper_feature_events()));
  }
  const auto many = model.recommend_many(rate_sets, node_.spec());
  ASSERT_EQ(many.size(), rate_sets.size());
  for (std::size_t k = 0; k < rate_sets.size(); ++k) {
    const auto one = model.recommend(rate_sets[k], node_.spec());
    EXPECT_EQ(many[k].cf, one.cf) << k;
    EXPECT_EQ(many[k].ucf, one.ucf) << k;
    EXPECT_EQ(many[k].predicted_normalized_energy,
              one.predicted_normalized_energy)
        << k;
  }
  EXPECT_TRUE(model.recommend_many({}, node_.spec()).empty());
}

TEST_F(EnergyModelTest, ParallelCandidateTrainingIsJobsInvariant) {
  // The candidate pool reduces in attempt order, so the trained ensemble
  // (weights, moments, member selection) is bitwise identical for any job
  // count — the serialized form is the strictest witness.
  EnergyModelConfig serial;
  serial.jobs = 1;
  EnergyModelConfig parallel;
  parallel.jobs = 4;
  EnergyModel m1(serial), m4(parallel);
  m1.train(dataset_, 5);
  m4.train(dataset_, 5);
  EXPECT_EQ(m1.to_json().dump(), m4.to_json().dump());
}

TEST_F(EnergyModelTest, UntrainedModelThrows) {
  EnergyModel model;
  EXPECT_THROW((void)model.predict(std::vector<double>(9, 0.0)),
               PreconditionError);
  EXPECT_THROW((void)model.to_json(), PreconditionError);
}

TEST_F(EnergyModelTest, TrainIsIdempotentAcrossFolds) {
  EnergyModel model;
  model.train(dataset_, 5);
  const double p1 = model.predict(dataset_.samples[0].features);
  model.train(dataset_, 5);  // retrain from scratch with same data
  EXPECT_DOUBLE_EQ(model.predict(dataset_.samples[0].features), p1);
}

TEST_F(EnergyModelTest, RegressionBaselineIsWorseThanNetwork) {
  // The paper's comparison setup: k-fold CV with random indexing over the
  // pooled samples (so both estimators interpolate rather than extrapolate
  // to unseen benchmarks); paper averages: NN 5.20 vs regression 7.54.
  Rng rng(0xCF02);
  const auto folds = stats::kfold(dataset_.samples.size(), 5, rng);
  double net_sum = 0.0, reg_sum = 0.0;
  for (const auto& fold : folds) {
    const auto train = dataset_.subset(fold.train);
    const auto test = dataset_.subset(fold.test);
    EnergyModel net;
    net.train(train, 10);
    RegressionEnergyModel reg;
    reg.train(train);
    net_sum += stats::mape(test.labels(), net.predict_all(test));
    reg_sum += stats::mape(test.labels(), reg.predict_all(test));
  }
  const double net_mape = net_sum / folds.size();
  const double reg_mape = reg_sum / folds.size();
  EXPECT_LT(net_mape, reg_mape);
  EXPECT_LT(net_mape, 10.0);
}

TEST(RegressionEnergyModel, PredictsProductOfLinearModels) {
  EnergyDataset ds;
  ds.feature_names = {"x", "cf", "ucf"};
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    EnergySample s;
    s.benchmark = "synthetic";
    const double x = rng.uniform(0, 1);
    s.features = {x, rng.uniform(1.2, 2.5), rng.uniform(1.3, 3.0)};
    s.normalized_power = 0.5 + 0.3 * s.features[1];
    s.normalized_time = 2.0 - 0.4 * s.features[1];
    s.normalized_energy = s.normalized_power * s.normalized_time;
    ds.samples.push_back(std::move(s));
  }
  RegressionEnergyModel reg;
  EXPECT_THROW((void)reg.predict(ds.samples[0].features), PreconditionError);
  reg.train(ds);
  const auto pred = reg.predict_all(ds);
  EXPECT_LT(stats::mape(ds.labels(), pred), 1.0);
}

}  // namespace
}  // namespace ecotune::model
