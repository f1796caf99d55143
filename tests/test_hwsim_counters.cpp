#include <gtest/gtest.h>

#include <optional>
#include <string_view>

#include "hwsim/counter_model.hpp"
#include "hwsim/perf_model.hpp"

namespace ecotune::hwsim {
namespace {

class CounterModelTest : public ::testing::Test {
 protected:
  CounterModelTest() {
    traits_.total_instructions = 1e10;
    traits_.ipc_peak = 2.0;
    traits_.load_fraction = 0.3;
    traits_.store_fraction = 0.1;
    traits_.branch_fraction = 0.12;
    traits_.dram_bytes = 2e9;
    perf_ = PerfModel{}.evaluate(traits_, 24, CoreFreq::mhz(2000),
                                 UncoreFreq::mhz(1500));
    counts_ = CounterModel::evaluate(spec_, traits_, 24, CoreFreq::mhz(2000),
                                     UncoreFreq::mhz(1500), perf_);
  }

  double at(PmuEvent e) const {
    return counts_[static_cast<std::size_t>(static_cast<int>(e))];
  }

  CpuSpec spec_ = haswell_ep_spec();
  KernelTraits traits_;
  PerfResult perf_;
  PmuCounts counts_;
};

TEST_F(CounterModelTest, InstructionMixIdentities) {
  EXPECT_DOUBLE_EQ(at(PmuEvent::kTOT_INS), 1e10);
  EXPECT_DOUBLE_EQ(at(PmuEvent::kLD_INS), 3e9);
  EXPECT_DOUBLE_EQ(at(PmuEvent::kSR_INS), 1e9);
  EXPECT_DOUBLE_EQ(at(PmuEvent::kLST_INS),
                   at(PmuEvent::kLD_INS) + at(PmuEvent::kSR_INS));
  EXPECT_DOUBLE_EQ(at(PmuEvent::kBR_INS), 1.2e9);
}

TEST_F(CounterModelTest, BranchDecomposition) {
  EXPECT_NEAR(at(PmuEvent::kBR_CN) + at(PmuEvent::kBR_UCN),
              at(PmuEvent::kBR_INS), 1.0);
  EXPECT_NEAR(at(PmuEvent::kBR_TKN) + at(PmuEvent::kBR_NTK),
              at(PmuEvent::kBR_CN), 1.0);
  EXPECT_NEAR(at(PmuEvent::kBR_MSP) + at(PmuEvent::kBR_PRC),
              at(PmuEvent::kBR_CN), 1.0);
  EXPECT_GT(at(PmuEvent::kBR_PRC), at(PmuEvent::kBR_MSP));
}

TEST_F(CounterModelTest, CacheHierarchyIsMonotone) {
  // Misses shrink level by level.
  EXPECT_GE(at(PmuEvent::kL1_TCM), at(PmuEvent::kL2_TCM));
  EXPECT_GE(at(PmuEvent::kLST_INS), at(PmuEvent::kL1_DCM));
  // Accesses at L2 equal misses at L1.
  EXPECT_NEAR(at(PmuEvent::kL2_DCA),
              at(PmuEvent::kL1_LDM) + at(PmuEvent::kL1_STM), 1.0);
  EXPECT_NEAR(at(PmuEvent::kL2_TCA),
              at(PmuEvent::kL2_DCA) + at(PmuEvent::kL2_ICA), 1.0);
}

TEST_F(CounterModelTest, L3MissesTiedToDramTraffic) {
  // 2e9 bytes / 64-byte lines = 31.25e6 line fills at least.
  EXPECT_GE(at(PmuEvent::kL3_TCM), 2e9 / 64.0 - 1.0);
}

TEST_F(CounterModelTest, CycleAccounting) {
  EXPECT_NEAR(at(PmuEvent::kTOT_CYC), perf_.total_cycles, 1.0);
  EXPECT_NEAR(at(PmuEvent::kRES_STL), perf_.stall_cycles, 1.0);
  EXPECT_LE(at(PmuEvent::kSTL_ICY), at(PmuEvent::kRES_STL));
  // REF_CYC at the 2.5 GHz reference clock vs TOT_CYC at 2.0 GHz.
  EXPECT_NEAR(at(PmuEvent::kREF_CYC) / at(PmuEvent::kTOT_CYC), 2.5 / 2.0,
              1e-9);
}

TEST_F(CounterModelTest, FpOpsExceedFpInstructionsWithVectors) {
  EXPECT_GT(at(PmuEvent::kFP_OPS),
            at(PmuEvent::kFP_INS) * 0.99);  // vector ops multiply
  EXPECT_NEAR(at(PmuEvent::kSP_OPS) + at(PmuEvent::kDP_OPS),
              at(PmuEvent::kFP_OPS), 1.0);
}

TEST_F(CounterModelTest, AllCountersNonNegative) {
  for (double v : counts_) EXPECT_GE(v, 0.0);
}

TEST(PmuEvents, ExactlyFiftySixPresets) {
  EXPECT_EQ(kPmuEventCount, 56);
  EXPECT_EQ(all_pmu_events().size(), 56u);
}

/// The preset whose PAPI name is `name`, if any.
std::optional<PmuEvent> event_named(std::string_view name) {
  for (auto e : all_pmu_events())
    if (pmu_event_name(e) == name) return e;
  return std::nullopt;
}

TEST(PmuEvents, NamesRoundTrip) {
  for (auto e : all_pmu_events()) {
    const auto name = pmu_event_name(e);
    EXPECT_TRUE(name.rfind("PAPI_", 0) == 0) << name;
    const auto back = event_named(name);  // names are unique
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, e);
  }
  EXPECT_FALSE(event_named("PAPI_NOT_A_COUNTER").has_value());
}

TEST(PmuEvents, PaperTableOneCountersExist) {
  for (const char* name : {"PAPI_BR_NTK", "PAPI_LD_INS", "PAPI_L2_ICR",
                           "PAPI_BR_MSP", "PAPI_RES_STL", "PAPI_SR_INS",
                           "PAPI_L2_DCR"}) {
    EXPECT_TRUE(event_named(name).has_value()) << name;
  }
}

// Property: counter values at the calibration point do not depend on which
// frequencies the kernel executes at later (they are application
// characteristics); the cycle counters are the documented exception.
class CounterFreqInvariance
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CounterFreqInvariance, MixCountersFrequencyInvariant) {
  const auto [cf_mhz, ucf_mhz] = GetParam();
  KernelTraits k;
  k.total_instructions = 1e9;
  const CpuSpec spec = haswell_ep_spec();
  const PerfModel pm;
  const auto perf_a = pm.evaluate(k, 24, CoreFreq::mhz(cf_mhz),
                                  UncoreFreq::mhz(ucf_mhz));
  const auto perf_b =
      pm.evaluate(k, 24, CoreFreq::mhz(2000), UncoreFreq::mhz(1500));
  const auto a = CounterModel::evaluate(spec, k, 24, CoreFreq::mhz(cf_mhz),
                                        UncoreFreq::mhz(ucf_mhz), perf_a);
  const auto b = CounterModel::evaluate(spec, k, 24, CoreFreq::mhz(2000),
                                        UncoreFreq::mhz(1500), perf_b);
  for (auto e : {PmuEvent::kTOT_INS, PmuEvent::kLD_INS, PmuEvent::kSR_INS,
                 PmuEvent::kBR_NTK, PmuEvent::kBR_MSP, PmuEvent::kL2_DCR,
                 PmuEvent::kL2_ICR}) {
    const auto i = static_cast<std::size_t>(static_cast<int>(e));
    EXPECT_DOUBLE_EQ(a[i], b[i]) << pmu_event_name(e);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FrequencyPairs, CounterFreqInvariance,
    ::testing::Values(std::pair{1200, 1300}, std::pair{1800, 2200},
                      std::pair{2500, 3000}, std::pair{2500, 1300},
                      std::pair{1200, 3000}));

}  // namespace
}  // namespace ecotune::hwsim
