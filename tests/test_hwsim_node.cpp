#include <gtest/gtest.h>

#include "hwsim/cluster.hpp"
#include "hwsim/node.hpp"
#include "hwsim/x86_adapt.hpp"

namespace ecotune::hwsim {
namespace {

KernelTraits small_kernel() {
  KernelTraits k;
  k.total_instructions = 1e9;
  return k;
}

class RecordingListener final : public PowerListener {
 public:
  void on_segment(Seconds d, Watts node, Watts cpu) override {
    segments.push_back({d, node, cpu});
  }
  struct Segment {
    Seconds duration;
    Watts node_power;
    Watts cpu_power;
  };
  std::vector<Segment> segments;
};

TEST(NodeSimulator, DefaultsToClusterDefaultFrequencies) {
  NodeSimulator node(haswell_ep_spec(), 0, Rng(1));
  EXPECT_EQ(node.core_freq(0), CoreFreq::mhz(2500));
  EXPECT_EQ(node.uncore_freq(0), UncoreFreq::mhz(3000));
  EXPECT_EQ(node.uncore_freq(1), UncoreFreq::mhz(3000));
}

TEST(NodeSimulator, FrequencyStateIsPerCoreAndPerSocket) {
  NodeSimulator node(haswell_ep_spec(), 0, Rng(1));
  node.set_core_freq(5, CoreFreq::mhz(1200));
  EXPECT_EQ(node.core_freq(5), CoreFreq::mhz(1200));
  EXPECT_EQ(node.core_freq(4), CoreFreq::mhz(2500));
  node.set_uncore_freq(1, UncoreFreq::mhz(1300));
  EXPECT_EQ(node.uncore_freq(0), UncoreFreq::mhz(3000));
  EXPECT_EQ(node.uncore_freq(1), UncoreFreq::mhz(1300));
}

TEST(NodeSimulator, EffectiveCoreFreqIsGangMinimum) {
  NodeSimulator node(haswell_ep_spec(), 0, Rng(1));
  node.set_core_freq(3, CoreFreq::mhz(1500));
  EXPECT_EQ(node.effective_core_freq(4), CoreFreq::mhz(1500));
  EXPECT_EQ(node.effective_core_freq(3), CoreFreq::mhz(2500));
}

TEST(NodeSimulator, RejectsOffGridFrequencies) {
  NodeSimulator node(haswell_ep_spec(), 0, Rng(1));
  EXPECT_THROW(node.set_core_freq(0, CoreFreq::mhz(1234)),
               PreconditionError);
  EXPECT_THROW(node.set_uncore_freq(0, UncoreFreq::mhz(3100)),
               PreconditionError);
  EXPECT_THROW(node.set_core_freq(24, CoreFreq::mhz(1200)),
               PreconditionError);
}

TEST(NodeSimulator, RunKernelAdvancesClockAndEnergy) {
  NodeSimulator node(haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  const auto r = node.run_kernel(small_kernel(), 24);
  EXPECT_GT(r.time.value(), 0.0);
  EXPECT_DOUBLE_EQ(node.now().value(), r.time.value());
  EXPECT_DOUBLE_EQ(r.node_energy.value(),
                   r.power.node().value() * r.time.value());
  EXPECT_GT(r.node_energy.value(), r.cpu_energy.value());
}

TEST(NodeSimulator, ZeroJitterIsDeterministic) {
  NodeSimulator a(haswell_ep_spec(), 0, Rng(1));
  NodeSimulator b(haswell_ep_spec(), 0, Rng(1));
  a.set_jitter(0.0);
  b.set_jitter(0.0);
  const auto ra = a.run_kernel(small_kernel(), 24);
  const auto rb = b.run_kernel(small_kernel(), 24);
  EXPECT_DOUBLE_EQ(ra.node_energy.value(), rb.node_energy.value());
  EXPECT_DOUBLE_EQ(ra.time.value(), rb.time.value());
}

TEST(NodeSimulator, JitterPerturbsRepeatedRuns) {
  NodeSimulator node(haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.01);
  const auto r1 = node.run_kernel(small_kernel(), 24);
  const auto r2 = node.run_kernel(small_kernel(), 24);
  EXPECT_NE(r1.node_energy.value(), r2.node_energy.value());
  // ...but only slightly.
  EXPECT_NEAR(r1.node_energy / r2.node_energy, 1.0, 0.2);
}

TEST(NodeSimulator, ListenersSeeAllSegments) {
  NodeSimulator node(haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  RecordingListener listener;
  node.add_listener(&listener);
  node.run_kernel(small_kernel(), 24);
  node.idle(Seconds(0.5));
  node.remove_listener(&listener);
  node.run_kernel(small_kernel(), 24);  // not observed
  ASSERT_EQ(listener.segments.size(), 2u);
  EXPECT_DOUBLE_EQ(listener.segments[1].duration.value(), 0.5);
  EXPECT_LT(listener.segments[1].node_power.value(),
            listener.segments[0].node_power.value());
}

TEST(NodeSimulator, CloneSnapshotsFullState) {
  NodeSimulator node(haswell_ep_spec(), 0, Rng(6));
  node.set_jitter(0.01);
  node.set_all_core_freqs(CoreFreq::mhz(1800));
  node.set_uncore_freq(1, UncoreFreq::mhz(2200));
  node.idle(Seconds(2.0));

  NodeSimulator copy = node.clone();
  EXPECT_EQ(copy.core_freq(5), CoreFreq::mhz(1800));
  EXPECT_EQ(copy.uncore_freq(1), UncoreFreq::mhz(2200));
  EXPECT_DOUBLE_EQ(copy.now().value(), node.now().value());
  EXPECT_DOUBLE_EQ(copy.variability().leakage_factor,
                   node.variability().leakage_factor);
  // Same noise stream state: the next jittered run matches bitwise.
  const auto ra = node.run_kernel(small_kernel(), 24);
  const auto rb = copy.run_kernel(small_kernel(), 24);
  EXPECT_EQ(ra.node_energy.value(), rb.node_energy.value());
  EXPECT_EQ(ra.time.value(), rb.time.value());
}

TEST(NodeSimulator, CloneDropsListenersAndKeyedCloneDecorrelates) {
  NodeSimulator node(haswell_ep_spec(), 0, Rng(6));
  node.set_jitter(0.01);
  RecordingListener listener;
  node.add_listener(&listener);

  NodeSimulator plain = node.clone();
  NodeSimulator keyed_a = node.clone("task-0");
  NodeSimulator keyed_b = node.clone("task-1");
  plain.run_kernel(small_kernel(), 24);
  EXPECT_TRUE(listener.segments.empty());  // clones observe nothing

  // Distinct keys yield distinct (but per-key deterministic) jitter.
  const auto a1 = keyed_a.run_kernel(small_kernel(), 24);
  const auto b1 = keyed_b.run_kernel(small_kernel(), 24);
  EXPECT_NE(a1.time.value(), b1.time.value());
  const auto a2 = node.clone("task-0").run_kernel(small_kernel(), 24);
  EXPECT_EQ(a1.time.value(), a2.time.value());
}

TEST(NodeSimulator, IdlePowerBelowLoadPower) {
  NodeSimulator node(haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  const auto loaded = node.run_kernel(small_kernel(), 24);
  EXPECT_LT(node.idle_power().node().value(), loaded.power.node().value());
}

TEST(X86Adapt, ChargesLatencyOnlyOnActualChange) {
  NodeSimulator node(haswell_ep_spec(), 0, Rng(1));
  X86Adapt adapt(node);
  const Seconds t0 = node.now();
  EXPECT_DOUBLE_EQ(adapt.set_all_core_freqs(CoreFreq::mhz(2500)).value(),
                   0.0);  // already there
  EXPECT_GT(adapt.set_all_core_freqs(CoreFreq::mhz(1800)).value(), 0.0);
  EXPECT_DOUBLE_EQ(adapt.set_all_core_freqs(CoreFreq::mhz(1800)).value(),
                   0.0);
  EXPECT_EQ(adapt.switch_count(), 1);
  EXPECT_DOUBLE_EQ(adapt.total_switch_time().value(), 21e-6);
  EXPECT_DOUBLE_EQ((node.now() - t0).value(), 21e-6);
}

TEST(X86Adapt, UncoreLatencyMatchesPaper) {
  NodeSimulator node(haswell_ep_spec(), 0, Rng(1));
  X86Adapt adapt(node);
  // Both sockets switch concurrently: one socket latency for the pair.
  EXPECT_DOUBLE_EQ(adapt.set_all_uncore_freqs(UncoreFreq::mhz(1500)).value(),
                   20e-6);
  EXPECT_EQ(node.uncore_freq(0), UncoreFreq::mhz(1500));
  EXPECT_EQ(node.uncore_freq(1), UncoreFreq::mhz(1500));
}

TEST(Cluster, NodesAreStableAndDistinct) {
  Cluster cluster;
  NodeSimulator& n0 = cluster.node(0);
  NodeSimulator& n1 = cluster.node(1);
  EXPECT_EQ(&n0, &cluster.node(0));
  EXPECT_NE(&n0, &n1);
  EXPECT_NE(n0.variability().leakage_factor,
            n1.variability().leakage_factor);
}

TEST(Cluster, SameSeedReproducesVariability) {
  Cluster a(haswell_ep_spec(), 77);
  Cluster b(haswell_ep_spec(), 77);
  EXPECT_DOUBLE_EQ(a.node(5).variability().leakage_factor,
                   b.node(5).variability().leakage_factor);
}

TEST(Cluster, NodeToNodeEnergyVariabilityIsVisible) {
  Cluster cluster;
  KernelTraits k = small_kernel();
  std::vector<double> energies;
  for (int id = 0; id < 4; ++id) {
    auto& node = cluster.node(id);
    node.set_jitter(0.0);
    energies.push_back(node.run_kernel(k, 24).node_energy.value());
  }
  const auto [lo, hi] = std::minmax_element(energies.begin(), energies.end());
  // The paper's Fig. 2a motivation: different nodes, visibly different
  // energies for the same work.
  EXPECT_GT((*hi - *lo) / *lo, 0.005);
}

}  // namespace
}  // namespace ecotune::hwsim
