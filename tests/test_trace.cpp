#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "instr/scorep_runtime.hpp"
#include "pmc/event_set.hpp"
#include "trace/otf2.hpp"
#include "trace/post_processor.hpp"
#include "trace/trace_listener.hpp"
#include "workload/suite.hpp"

namespace ecotune::trace {
namespace {

using hwsim::PmuEvent;

TEST(Otf2Archive, DefinitionsInternAndLookup) {
  Otf2Archive a;
  const auto r1 = a.define_region("phase");
  const auto r2 = a.define_region("kernel");
  EXPECT_EQ(a.define_region("phase"), r1);  // interned
  EXPECT_NE(r1, r2);
  EXPECT_EQ(a.region_name(r1), "phase");
  EXPECT_EQ(a.region_id("kernel"), r2);
  EXPECT_TRUE(a.has_region("phase"));
  EXPECT_FALSE(a.has_region("nope"));
  EXPECT_THROW((void)a.region_id("nope"), PreconditionError);

  const auto m = a.define_metric("energy");
  EXPECT_EQ(a.metric_name(m), "energy");
  EXPECT_EQ(a.define_metric("energy"), m);  // interned
}

TEST(Otf2Archive, EnforcesChronologicalOrder) {
  Otf2Archive a;
  const auto r = a.define_region("r");
  a.enter(Seconds(1.0), r);
  a.exit(Seconds(2.0), r);
  EXPECT_THROW(a.enter(Seconds(1.5), r), PreconditionError);
}

TEST(Otf2Archive, RejectsUnknownIds) {
  Otf2Archive a;
  EXPECT_THROW(a.enter(Seconds(0.0), 0), PreconditionError);
  EXPECT_THROW(a.metric(Seconds(0.0), 0, 1.0), PreconditionError);
}

TEST(Otf2Archive, BinaryRoundTrip) {
  Otf2Archive a;
  const auto r = a.define_region("omp parallel:423");
  const auto m = a.define_metric("hdeem/BLADE/E");
  a.enter(Seconds(0.5), r);
  a.metric(Seconds(0.5), m, 123.456);
  a.exit(Seconds(1.25), r);

  const std::string path =
      (std::filesystem::temp_directory_path() / "ecotune_trace_test.bin")
          .string();
  a.save(path);
  const Otf2Archive b = Otf2Archive::load(path);
  std::remove(path.c_str());

  ASSERT_EQ(b.records().size(), 3u);
  EXPECT_EQ(b.region_name(b.records()[0].id), "omp parallel:423");
  EXPECT_EQ(b.records()[1].type, RecordType::kMetric);
  EXPECT_DOUBLE_EQ(b.records()[1].value, 123.456);
  EXPECT_DOUBLE_EQ(b.records()[2].timestamp, 1.25);
}

TEST(Otf2Archive, LoadRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ecotune_garbage.bin")
          .string();
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a trace";
  }
  EXPECT_THROW(Otf2Archive::load(path), Error);
  std::remove(path.c_str());
  EXPECT_THROW(Otf2Archive::load("/nonexistent/path/x.bin"), Error);
}

class TracedRunTest : public ::testing::Test {
 protected:
  TracedRunTest()
      : node_(hwsim::haswell_ep_spec(), 0, Rng(1)),
        app_(workload::BenchmarkSuite::by_name("Lulesh").with_iterations(3)) {
    node_.set_jitter(0.0);
  }

  Otf2Archive run_traced(pmc::EventSet events) {
    Otf2Archive archive;
    TraceListener listener(archive, std::move(events),
                           pmc::CounterSampler(Rng(2), 0.0));
    instr::ExecutionContext ctx(node_);
    instr::ScorepRuntime runtime(
        app_, instr::InstrumentationFilter::instrument_all());
    runtime.add_listener(&listener);
    runtime.execute(ctx);
    return archive;
  }

  /// Instructions one phase iteration retires across all regions.
  double instructions_per_iteration() const {
    double total = 0.0;
    for (const auto& r : app_.regions())
      total += r.traits.total_instructions * r.calls_per_iteration;
    return total;
  }

  hwsim::NodeSimulator node_;
  workload::Benchmark app_;
};

TEST_F(TracedRunTest, ProducesBalancedChronologicalRecords) {
  const auto archive = run_traced(pmc::EventSet{});
  int depth = 0;
  double last_t = 0.0;
  for (const auto& r : archive.records()) {
    EXPECT_GE(r.timestamp, last_t);
    last_t = r.timestamp;
    if (r.type == RecordType::kEnter) ++depth;
    if (r.type == RecordType::kExit) --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(TracedRunTest, PostProcessorExtractsPhaseInstances) {
  const auto archive = run_traced(
      pmc::EventSet({PmuEvent::kTOT_INS, PmuEvent::kLD_INS}));
  const Otf2PostProcessor post(archive,
                               std::string(instr::kPhaseRegionName));
  ASSERT_EQ(post.phase_instances().size(), 3u);
  for (const auto& inst : post.phase_instances()) {
    EXPECT_GT(inst.duration().value(), 0.0);
    EXPECT_GT(inst.energy.value(), 0.0);
    // Each phase iteration executes the same work.
    ASSERT_TRUE(inst.counters.count("PAPI_TOT_INS"));
    EXPECT_NEAR(inst.counters.at("PAPI_TOT_INS"),
                instructions_per_iteration(), 1e-3);
  }
}

TEST_F(TracedRunTest, WholeRunEnergyMatchesSumOfPhases) {
  const auto archive = run_traced(pmc::EventSet{});
  const Otf2PostProcessor post(archive,
                               std::string(instr::kPhaseRegionName));
  double phase_sum = 0.0;
  for (const auto& inst : post.phase_instances())
    phase_sum += inst.energy.value();
  EXPECT_NEAR(post.total_energy().value(), phase_sum,
              1e-6 * phase_sum + 1e-9);
  EXPECT_GT(post.total_time().value(), 0.0);
}

TEST_F(TracedRunTest, MeanCounterRatesAreTimeNormalized) {
  const auto archive = run_traced(pmc::EventSet({PmuEvent::kTOT_INS}));
  const Otf2PostProcessor post(archive,
                               std::string(instr::kPhaseRegionName));
  const auto rates = post.mean_counter_rates();
  ASSERT_TRUE(rates.count("PAPI_TOT_INS"));
  double total_t = 0.0;
  for (const auto& inst : post.phase_instances())
    total_t += inst.duration().value();
  EXPECT_NEAR(rates.at("PAPI_TOT_INS"),
              3.0 * instructions_per_iteration() / total_t, 1.0);
}

TEST_F(TracedRunTest, RegionStatsCoverAllInstrumentedRegions) {
  const auto archive = run_traced(pmc::EventSet{});
  const Otf2PostProcessor post(archive,
                               std::string(instr::kPhaseRegionName));
  // 7 app regions + phase.
  EXPECT_EQ(post.region_stats().size(), app_.regions().size() + 1);
  for (const auto& rs : post.region_stats()) {
    EXPECT_EQ(rs.count, 3) << rs.name;
    EXPECT_GT(rs.total_time.value(), 0.0);
  }
}

TEST(Otf2PostProcessor, EmptyArchiveYieldsZeroes) {
  Otf2Archive a;
  const Otf2PostProcessor post(a, "PHASE");
  EXPECT_DOUBLE_EQ(post.total_energy().value(), 0.0);
  EXPECT_TRUE(post.phase_instances().empty());
  EXPECT_THROW(post.mean_counter_rates(), PreconditionError);
}

}  // namespace
}  // namespace ecotune::trace
