#include <gtest/gtest.h>

#include "energymon/rapl.hpp"
#include "energymon/sacct.hpp"
#include "hwsim/node.hpp"

namespace ecotune::energymon {
namespace {

hwsim::KernelTraits kernel(double gi = 5.0) {
  hwsim::KernelTraits k;
  k.total_instructions = gi * 1e9;
  return k;
}

class EnergymonTest : public ::testing::Test {
 protected:
  EnergymonTest() : node_(hwsim::haswell_ep_spec(), 0, Rng(1)) {
    node_.set_jitter(0.0);
  }
  hwsim::NodeSimulator node_;
};

TEST_F(EnergymonTest, RaplCounterTracksCpuEnergy) {
  Rapl rapl(node_);
  MeasureRapl tool(rapl);
  tool.start();
  const auto run = node_.run_kernel(kernel(20.0), 24);
  const Joules measured = tool.stop();
  // Quantized to 1 ms PCU updates; relative error small for long regions.
  EXPECT_NEAR(measured.value() / run.cpu_energy.value(), 1.0, 0.01);
}

TEST_F(EnergymonTest, RaplReadIsQuantizedToUpdatePeriod) {
  Rapl rapl(node_);
  const auto before = rapl.read_counter();
  node_.idle(Seconds(0.4e-3));  // less than one update period
  EXPECT_EQ(rapl.read_counter(), before);
  node_.idle(Seconds(1e-3));
  EXPECT_GT(rapl.read_counter(), before);
}

TEST_F(EnergymonTest, RaplDeltaHandlesWraparound) {
  Rapl rapl(node_);
  const std::uint64_t before = 0xFFFFFF00ULL;
  const std::uint64_t after = 0x00000100ULL;
  const Joules d = rapl.delta_energy(before, after);
  EXPECT_NEAR(d.value(), (0x100ULL + 0x100ULL) * 15.3e-6, 1e-9);
}

TEST_F(EnergymonTest, SacctRecordsJobEnergyAndTime) {
  Sacct sacct(node_);
  sacct.job_start("lulesh-default");
  const auto run = node_.run_kernel(kernel(10.0), 24);
  const JobRecord rec = sacct.job_end();
  EXPECT_EQ(rec.job_name, "lulesh-default");
  EXPECT_EQ(rec.node_id, 0);
  EXPECT_DOUBLE_EQ(rec.elapsed.value(), run.time.value());
  EXPECT_NEAR(rec.consumed_energy.value(), run.node_energy.value(), 1e-9);
}

TEST_F(EnergymonTest, SacctQueryReturnsMostRecent) {
  Sacct sacct(node_);
  sacct.job_start("job");
  node_.run_kernel(kernel(), 24);
  sacct.job_end();
  sacct.job_start("job");
  node_.run_kernel(kernel(), 12);
  const auto second = sacct.job_end();
  const auto q = sacct.query("job");
  ASSERT_TRUE(q.has_value());
  EXPECT_DOUBLE_EQ(q->consumed_energy.value(),
                   second.consumed_energy.value());
  EXPECT_FALSE(sacct.query("nope").has_value());
  EXPECT_EQ(sacct.records().size(), 2u);
}

TEST_F(EnergymonTest, SacctRejectsNestedJobs) {
  Sacct sacct(node_);
  sacct.job_start("a");
  EXPECT_THROW(sacct.job_start("b"), PreconditionError);
  sacct.job_end();
  EXPECT_THROW(sacct.job_end(), PreconditionError);
}

}  // namespace
}  // namespace ecotune::energymon
