#include <gtest/gtest.h>

#include "hwsim/clock_modulation.hpp"
#include "hwsim/node.hpp"

namespace ecotune::hwsim {
namespace {

KernelTraits compute_kernel() {
  KernelTraits k;
  k.total_instructions = 1e10;
  k.ipc_peak = 2.0;
  k.dram_bytes = 1e8;
  k.uncore_cycles = 1e8;
  k.parallel_fraction = 0.995;
  k.overlap = 0.8;
  return k;
}

class ClockModulationTest : public ::testing::Test {
 protected:
  ClockModulationTest() : node_(haswell_ep_spec(), 0, Rng(1)) {
    node_.set_jitter(0.0);
  }
  hwsim::NodeSimulator node_;
};

TEST_F(ClockModulationTest, DefaultsToUnmodulated) {
  ClockModulation mod(node_);
  EXPECT_DOUBLE_EQ(mod.duty(), 1.0);
  EXPECT_DOUBLE_EQ(mod.set_duty_level(16).value(), 0.0);  // already level 16
  const auto plain = node_.run_kernel(compute_kernel(), 24);
  const auto via_mod = mod.run_kernel(compute_kernel(), 24);
  EXPECT_DOUBLE_EQ(via_mod.time.value(), plain.time.value());
}

TEST_F(ClockModulationTest, SetDutyChargesMsrLatencyOnce) {
  ClockModulation mod(node_);
  const Seconds t0 = node_.now();
  EXPECT_GT(mod.set_duty_level(8).value(), 0.0);
  EXPECT_DOUBLE_EQ(mod.set_duty_level(8).value(), 0.0);  // unchanged
  EXPECT_DOUBLE_EQ((node_.now() - t0).value(),
                   node_.spec().core_switch_latency.value());
  EXPECT_THROW(mod.set_duty_level(0), PreconditionError);
  EXPECT_THROW(mod.set_duty_level(17), PreconditionError);
}

TEST_F(ClockModulationTest, HalfDutyRoughlyDoublesComputeTime) {
  ClockModulation mod(node_);
  const auto full = mod.run_kernel(compute_kernel(), 24);
  mod.set_duty_level(8);  // 50 %
  const auto half = mod.run_kernel(compute_kernel(), 24);
  const double ratio = half.time / full.time;
  EXPECT_GT(ratio, 1.8);   // compute share stretches ~2x (+ drain penalty)
  EXPECT_LT(ratio, 2.35);
}

TEST_F(ClockModulationTest, ModulationReducesPowerButLessThanProportionally) {
  ClockModulation mod(node_);
  const auto full = mod.run_kernel(compute_kernel(), 24);
  mod.set_duty_level(8);
  const auto half = mod.run_kernel(compute_kernel(), 24);
  // Node power drops (core dynamic gated)...
  EXPECT_LT(half.power.node().value(), full.power.node().value());
  // ...but static + uncore + base stay, so power reduction is far less
  // than the 2x slowdown: energy goes UP.
  EXPECT_GT(half.node_energy.value(), full.node_energy.value());
}

TEST_F(ClockModulationTest, DvfsBeatsModulationAtIsoSlowdown) {
  // The canonical result: at comparable slowdown, reducing the clock via
  // DVFS (voltage drops too) consumes less energy than duty-cycling at the
  // original voltage.
  const auto k = compute_kernel();

  // DVFS: 1.3 GHz vs 2.5 GHz is roughly a 1.9x slowdown for compute code.
  node_.set_all_core_freqs(CoreFreq::mhz(1300));
  const auto dvfs = node_.run_kernel(k, 24);
  node_.set_all_core_freqs(CoreFreq::mhz(2500));

  // Modulation at 50 % duty gives a comparable slowdown.
  ClockModulation mod(node_);
  mod.set_duty_level(8);
  const auto modulated = mod.run_kernel(k, 24);

  EXPECT_NEAR(modulated.time / dvfs.time, 1.0, 0.25);  // iso-ish slowdown
  EXPECT_LT(dvfs.node_energy.value(), modulated.node_energy.value());
  EXPECT_LT(dvfs.cpu_energy.value(), modulated.cpu_energy.value());
}

// Property sweep: time stretch is monotone in the duty level.
class DutySweep : public ::testing::TestWithParam<int> {};

TEST_P(DutySweep, DeeperModulationIsSlowerAndNeverCheaperPerWork) {
  hwsim::NodeSimulator node(haswell_ep_spec(), 0, Rng(2));
  node.set_jitter(0.0);
  ClockModulation mod(node);
  const auto k = compute_kernel();
  const auto full = mod.run_kernel(k, 24);

  mod.set_duty_level(GetParam());
  const auto modulated = mod.run_kernel(k, 24);
  EXPECT_GE(modulated.time.value(), full.time.value());
  EXPECT_GE(modulated.node_energy.value(), full.node_energy.value() * 0.999);
}

INSTANTIATE_TEST_SUITE_P(DutyLevels, DutySweep,
                         ::testing::Values(2, 4, 6, 8, 10, 12, 14, 16));

}  // namespace
}  // namespace ecotune::hwsim
