#include <gtest/gtest.h>

#include "instr/execution_context.hpp"
#include "instr/filter.hpp"
#include "instr/pcp.hpp"
#include "instr/profile.hpp"
#include "instr/scorep_runtime.hpp"
#include "workload/suite.hpp"

namespace ecotune::instr {
namespace {

hwsim::NodeSimulator make_node() {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  node.set_jitter(0.0);
  return node;
}

TEST(ExecutionContext, AppliesFullConfigAndTracksOverhead) {
  auto node = make_node();
  ExecutionContext ctx(node);
  const SystemConfig target{16, CoreFreq::mhz(1800), UncoreFreq::mhz(2200)};
  const Seconds t0 = node.now();
  const Seconds overhead = ctx.apply(target);
  EXPECT_EQ(ctx.current(), target);
  // Threads (8 us) + core (21 us) + uncore (20 us), charged on the clock.
  EXPECT_DOUBLE_EQ(overhead.value(), 8e-6 + 21e-6 + 20e-6);
  EXPECT_DOUBLE_EQ((node.now() - t0).value(), overhead.value());
  // Re-applying the same config is free.
  EXPECT_DOUBLE_EQ(ctx.apply(target).value(), 0.0);
  EXPECT_DOUBLE_EQ((node.now() - t0).value(), overhead.value());
}

TEST(ExecutionContext, RejectsInvalidThreadCounts) {
  auto node = make_node();
  ExecutionContext ctx(node);
  EXPECT_THROW(ctx.set_omp_threads(0), PreconditionError);
  EXPECT_THROW(ctx.set_omp_threads(25), PreconditionError);
}

TEST(Pcp, PluginsControlTheirParameters) {
  auto node = make_node();
  ExecutionContext ctx(node);
  auto pcps = default_pcps();
  ASSERT_EQ(pcps.size(), 3u);
  for (const auto& p : pcps) {
    if (p->name() == "OpenMPTP") {
      p->set(ctx, 16);
      EXPECT_EQ(p->get(ctx), 16);
    } else if (p->name() == "cpu_freq") {
      p->set(ctx, 1800);
      EXPECT_EQ(p->get(ctx), 1800);
    } else if (p->name() == "uncore_freq") {
      p->set(ctx, 2200);
      EXPECT_EQ(p->get(ctx), 2200);
    }
  }
  EXPECT_EQ(ctx.current(),
            (SystemConfig{16, CoreFreq::mhz(1800), UncoreFreq::mhz(2200)}));
}

TEST(Filter, InstrumentAllAndNone) {
  const auto all = InstrumentationFilter::instrument_all();
  EXPECT_TRUE(all.is_instrumented("anything"));
  const auto none = InstrumentationFilter::instrument_none();
  EXPECT_FALSE(none.is_instrumented("anything"));
}

TEST(Filter, ExcludeAndFilterFileRoundTrip) {
  InstrumentationFilter f;
  f.exclude("tiny_region");
  f.exclude("omp parallel:423");
  EXPECT_FALSE(f.is_instrumented("tiny_region"));
  EXPECT_TRUE(f.is_instrumented("big_region"));

  const std::string text = f.to_filter_file();
  EXPECT_NE(text.find("EXCLUDE tiny_region"), std::string::npos);
  const auto parsed = InstrumentationFilter::from_filter_file(text);
  EXPECT_FALSE(parsed.is_instrumented("tiny_region"));
  EXPECT_FALSE(parsed.is_instrumented("omp parallel:423"));
  EXPECT_TRUE(parsed.is_instrumented("big_region"));
}

TEST(Profile, AggregatesSamples) {
  CallTreeProfile profile;
  RegionExit e;
  e.region = "r1";
  e.type = RegionType::kFunction;
  e.enter_time = Seconds(0.0);
  e.exit_time = Seconds(0.2);
  e.node_energy = Joules(50.0);
  profile.add_sample(e);
  e.enter_time = Seconds(0.3);
  e.exit_time = Seconds(0.7);
  profile.add_sample(e);

  const auto all = profile.all();
  ASSERT_EQ(all.size(), 1u);
  const RegionStats& s = all.front();
  EXPECT_EQ(s.name, "r1");
  EXPECT_EQ(s.count, 2);

  EXPECT_DOUBLE_EQ(s.total_time.value(), 0.6);
  EXPECT_DOUBLE_EQ(s.mean_time().value(), 0.3);
  EXPECT_DOUBLE_EQ(s.min_time.value(), 0.2);
  EXPECT_DOUBLE_EQ(s.max_time.value(), 0.4);
}

TEST(ScorepRuntime, ExecutesAllIterationsAndRegions) {
  auto node = make_node();
  const auto app = workload::BenchmarkSuite::by_name("Lulesh")
                       .with_iterations(3);
  ExecutionContext ctx(node);
  ScorepOptions opts;
  opts.profiling = true;
  ScorepRuntime runtime(app, InstrumentationFilter::instrument_all(), opts);
  const auto result = runtime.execute(ctx);

  ASSERT_TRUE(result.profile.has_value());
  EXPECT_EQ(result.profile->phase_count(), 3);
  std::map<std::string, long> counts;
  for (const auto& s : result.profile->all()) counts[s.name] = s.count;
  for (const auto& r : app.regions())
    EXPECT_EQ(counts[r.name], 3) << r.name;

  EXPECT_GT(result.wall_time.value(), 0.0);
  EXPECT_GT(result.node_energy.value(), result.cpu_energy.value());
}

TEST(ScorepRuntime, InstrumentationAddsMeasurableOverhead) {
  const auto app = workload::BenchmarkSuite::by_name("Mcb")
                       .with_iterations(2);
  auto node_a = make_node();
  ExecutionContext ctx_a(node_a);
  ScorepRuntime instrumented(app, InstrumentationFilter::instrument_all());
  const auto with = instrumented.execute(ctx_a);

  auto node_b = make_node();
  const auto without = run_uninstrumented(
      app, node_b, SystemConfig{24, CoreFreq::mhz(2500),
                                UncoreFreq::mhz(3000)});

  EXPECT_GT(with.instrumentation_events, 0);
  EXPECT_GT(with.instrumentation_overhead.value(), 0.0);
  EXPECT_GT(with.wall_time.value(), without.wall_time.value());
  EXPECT_EQ(without.instrumentation_events, 0);
  EXPECT_DOUBLE_EQ(without.instrumentation_overhead.value(), 0.0);
}

TEST(ScorepRuntime, FilteredRegionsProduceNoEvents) {
  auto node = make_node();
  const auto& app = workload::BenchmarkSuite::by_name("Lulesh");
  const auto shortened = app.with_iterations(2);

  InstrumentationFilter filter;
  for (const auto& r : shortened.regions()) filter.exclude(r.name);
  // Only the phase region remains instrumented.
  ExecutionContext ctx(node);
  ScorepOptions opts;
  opts.profiling = true;
  ScorepRuntime runtime(shortened, filter, opts);
  const auto result = runtime.execute(ctx);
  ASSERT_TRUE(result.profile.has_value());
  EXPECT_EQ(result.profile->all().size(), 1u);  // just PHASE
  EXPECT_EQ(result.profile->phase_count(), 2);
}

TEST(ScorepRuntime, ListenersObserveConfigSwitchesAtPhase) {
  auto node = make_node();
  const auto app = workload::BenchmarkSuite::by_name("miniMD")
                       .with_iterations(4);

  // A listener that alternates the core frequency every phase iteration.
  class Alternator final : public RegionListener {
   public:
    explicit Alternator(ExecutionContext& ctx) : ctx_(ctx) {}
    void on_enter(const RegionEnter& e) override {
      if (e.type != RegionType::kPhase) return;
      const int mhz = e.iteration % 2 == 0 ? 1200 : 2500;
      ctx_.adapt().set_all_core_freqs(CoreFreq::mhz(mhz));
    }
    void on_exit(const RegionExit& e) override {
      if (e.type == RegionType::kPhase) phase_times.push_back(e.duration());
    }
    std::vector<Seconds> phase_times;

   private:
    ExecutionContext& ctx_;
  };

  ExecutionContext ctx(node);
  Alternator alternator(ctx);
  ScorepRuntime runtime(app, InstrumentationFilter::instrument_all());
  runtime.add_listener(&alternator);
  runtime.execute(ctx);

  ASSERT_EQ(alternator.phase_times.size(), 4u);
  // Even iterations ran at 1.2 GHz and must be slower.
  EXPECT_GT(alternator.phase_times[0].value(),
            alternator.phase_times[1].value() * 1.3);
  EXPECT_GT(alternator.phase_times[2].value(),
            alternator.phase_times[3].value() * 1.3);
}

TEST(AutoFilter, ExcludesFineGranularRegionsOnly) {
  auto node = make_node();
  const auto app = workload::BenchmarkSuite::by_name("Lulesh")
                       .with_iterations(2);
  ExecutionContext ctx(node);
  ScorepOptions opts;
  opts.profiling = true;
  ScorepRuntime runtime(app, InstrumentationFilter::instrument_all(), opts);
  const auto result = runtime.execute(ctx);

  const auto filtered = scorep_autofilter(*result.profile, Seconds(1e-3));
  // The two tiny helper regions fall below 1 ms.
  EXPECT_EQ(filtered.excluded.size(), 2u);
  for (const auto& name : filtered.excluded)
    EXPECT_FALSE(filtered.filter.is_instrumented(name));
  EXPECT_TRUE(filtered.filter.is_instrumented("IntegrateStressForElems"));
  EXPECT_TRUE(
      filtered.filter.is_instrumented(std::string(kPhaseRegionName)));
}

}  // namespace
}  // namespace ecotune::instr
