// Google-benchmark microbenchmarks of the building blocks: simulator kernel
// evaluation, counter derivation, NN inference/training, trace writing and
// post-processing, and a full RRL production run. These quantify the cost
// of the reproduction substrate itself.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/simd.hpp"
#include "hwsim/node.hpp"
#include "instr/scorep_runtime.hpp"
#include "model/energy_model.hpp"
#include "nn/mlp.hpp"
#include "pmc/counter_sampler.hpp"
#include "readex/rrl.hpp"
#include "trace/post_processor.hpp"
#include "trace/trace_listener.hpp"
#include "workload/suite.hpp"

using namespace ecotune;

namespace {

hwsim::KernelTraits bench_kernel() {
  return workload::BenchmarkSuite::by_name("Lulesh").regions()[0].traits;
}

void BM_PerfModelEvaluate(benchmark::State& state) {
  const hwsim::PerfModel model;
  const auto k = bench_kernel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.evaluate(k, 24, CoreFreq::mhz(2400), UncoreFreq::mhz(1700)));
  }
}
BENCHMARK(BM_PerfModelEvaluate);

void BM_CounterModelEvaluate(benchmark::State& state) {
  const hwsim::CpuSpec spec = hwsim::haswell_ep_spec();
  const hwsim::PerfModel model;
  const auto k = bench_kernel();
  const auto perf =
      model.evaluate(k, 24, CoreFreq::mhz(2400), UncoreFreq::mhz(1700));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hwsim::CounterModel::evaluate(
        spec, k, 24, CoreFreq::mhz(2400), UncoreFreq::mhz(1700), perf));
  }
}
BENCHMARK(BM_CounterModelEvaluate);

void BM_NodeRunKernel(benchmark::State& state) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  const auto k = bench_kernel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.run_kernel(k, 24));
  }
}
BENCHMARK(BM_NodeRunKernel);

void BM_MlpInference(benchmark::State& state) {
  Rng rng(2);
  const nn::Mlp net(nn::MlpConfig{}, rng);
  const std::vector<double> x(9, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.predict(x));
  }
}
BENCHMARK(BM_MlpInference);

void BM_MlpTrainSample(benchmark::State& state) {
  Rng rng(3);
  nn::Mlp net(nn::MlpConfig{}, rng);
  const std::vector<double> x(9, 0.3);
  const std::vector<double> y{1.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.train_sample(x, y));
  }
}
BENCHMARK(BM_MlpTrainSample);

void BM_MlpTrainEpoch(benchmark::State& state) {
  // One epoch of per-sample ADAM over a fig5-fold-sized standardized
  // dataset; the dominant cost of EnergyModel::train.
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Matrix x;
  std::vector<double> y;
  bench::synthetic_training_data(n, x, y);
  Rng rng(42);
  nn::Mlp net(nn::MlpConfig{}, rng);
  Rng shuffle(43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.train_epoch(x, y, shuffle));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MlpTrainEpoch)->Arg(2048)->Arg(19152);

void BM_MlpForwardBatch(benchmark::State& state) {
  // Batched inference over one 14x18 frequency grid (252 rows); bitwise
  // identical to 252 predict() calls at every dispatch level.
  Rng rng(2);
  const nn::Mlp net(nn::MlpConfig{}, rng);
  const stats::Matrix x = bench::synthetic_grid_batch();
  const std::size_t grid = x.rows();
  nn::Workspace ws;
  std::vector<double> out(grid);
  for (auto _ : state) {
    net.forward_batch(x, std::span<double>(out), ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(grid));
}
BENCHMARK(BM_MlpForwardBatch);

void BM_EnsembleFusedVsSequential(benchmark::State& state) {
  // Five-member ensemble prediction over the 252-row grid through the
  // fused engine, which sweeps all members over one cache-resident
  // four-sample lane group at a time: Arg(0) on the plain-C++ lanes
  // (ECOTUNE_SIMD=off), Arg(1) on the best vector level. Same bits.
  const simd::ScopedLevel level(state.range(0) == 0 ? simd::Level::kScalar
                                                    : simd::detect_best());
  const auto model = bench::untrained_ensemble_model(5);
  Rng rng(6);
  stats::Matrix raw(252, 9);
  for (std::size_t r = 0; r < raw.rows(); ++r)
    for (std::size_t c = 0; c < raw.cols(); ++c)
      raw(r, c) = rng.uniform(0.0, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_batch(raw).data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(raw.rows()));
}
BENCHMARK(BM_EnsembleFusedVsSequential)->Arg(0)->Arg(1);

void BM_TrainEpochSimd(benchmark::State& state) {
  // BM_MlpTrainEpoch/19152 pinned to a dispatch level: Arg(0) the engine
  // on the plain-C++ lanes, Arg(1) on AVX2 (the perf_report
  // mlp_train_epoch metric runs whatever level is active). Same bits.
  const simd::ScopedLevel level(state.range(0) == 0 ? simd::Level::kScalar
                                                    : simd::detect_best());
  const std::size_t n = 19152;
  stats::Matrix x;
  std::vector<double> y;
  bench::synthetic_training_data(n, x, y);
  Rng rng(42);
  nn::Mlp net(nn::MlpConfig{}, rng);
  Rng shuffle(43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.train_epoch(x, y, shuffle));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TrainEpochSimd)->Arg(0)->Arg(1);

void BM_GridArgminSweep(benchmark::State& state) {
  // Cost of predicting the full 14x18 frequency grid (the plugin's
  // search-space reduction step).
  Rng rng(4);
  nn::Mlp net(nn::MlpConfig{}, rng);
  const hwsim::CpuSpec spec = hwsim::haswell_ep_spec();
  for (auto _ : state) {
    double best = 1e300;
    std::vector<double> x(9, 0.3);
    for (auto cf : spec.core_grid.values()) {
      for (auto ucf : spec.uncore_grid.values()) {
        x[7] = cf.as_ghz();
        x[8] = ucf.as_ghz();
        best = std::min(best, net.predict(x));
      }
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_GridArgminSweep);

void BM_GridRecommendBatched(benchmark::State& state) {
  // EnergyModel::recommend on the batched path: one scaled 252-row sweep
  // per ensemble member instead of 252 per-point forwards per member.
  const auto model = bench::untrained_ensemble_model(5);
  const hwsim::CpuSpec spec = hwsim::haswell_ep_spec();
  const std::map<std::string, double> rates = bench::synthetic_counter_rates();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.recommend(rates, spec).predicted_normalized_energy);
  }
}
BENCHMARK(BM_GridRecommendBatched);

void BM_TracedApplicationRun(benchmark::State& state) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(5));
  node.set_jitter(0.0);
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(2);
  for (auto _ : state) {
    trace::Otf2Archive archive;
    trace::TraceListener listener(archive, pmc::EventSet{},
                                  pmc::CounterSampler(Rng(6), 0.0));
    instr::ExecutionContext ctx(node);
    instr::ScorepRuntime runtime(
        app, instr::InstrumentationFilter::instrument_all());
    runtime.add_listener(&listener);
    benchmark::DoNotOptimize(runtime.execute(ctx));
    benchmark::DoNotOptimize(archive.records().size());
  }
}
BENCHMARK(BM_TracedApplicationRun);

void BM_TracePostProcess(benchmark::State& state) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(7));
  node.set_jitter(0.0);
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(10);
  trace::Otf2Archive archive;
  trace::TraceListener listener(
      archive,
      pmc::EventSet({hwsim::PmuEvent::kTOT_INS, hwsim::PmuEvent::kLD_INS}),
      pmc::CounterSampler(Rng(8), 0.0));
  instr::ExecutionContext ctx(node);
  instr::ScorepRuntime runtime(
      app, instr::InstrumentationFilter::instrument_all());
  runtime.add_listener(&listener);
  runtime.execute(ctx);
  for (auto _ : state) {
    trace::Otf2PostProcessor post(archive,
                                  std::string(instr::kPhaseRegionName));
    benchmark::DoNotOptimize(post.phase_instances().size());
  }
}
BENCHMARK(BM_TracePostProcess);

void BM_RrlProductionRun(benchmark::State& state) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(9));
  node.set_jitter(0.0);
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(5);
  readex::TuningModel model;
  for (const auto& r : app.regions()) {
    if (r.traits.total_instructions > 1e9)
      model.add_region(r.name,
                       {24, CoreFreq::mhz(2400), UncoreFreq::mhz(1700)});
  }
  auto filter = instr::InstrumentationFilter::instrument_all();
  for (const auto& r : app.regions())
    if (!model.lookup(r.name)) filter.exclude(r.name);
  const SystemConfig default_config{24, CoreFreq::mhz(2500),
                                    UncoreFreq::mhz(3000)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        readex::run_with_rrl(app, node, model, filter, default_config));
  }
}
BENCHMARK(BM_RrlProductionRun);

}  // namespace

BENCHMARK_MAIN();
