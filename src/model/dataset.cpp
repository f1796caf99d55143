#include "model/dataset.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/parallel.hpp"
#include "instr/scorep_runtime.hpp"
#include "store/cached.hpp"
#include "model/features.hpp"
#include "pmc/counter_sampler.hpp"
#include "pmc/event_set.hpp"
#include "trace/otf2.hpp"
#include "trace/post_processor.hpp"
#include "trace/trace_listener.hpp"

namespace ecotune::model {

stats::Matrix EnergyDataset::feature_matrix() const {
  ensure(!samples.empty(), "EnergyDataset::feature_matrix: empty dataset");
  stats::Matrix m(samples.size(), samples.front().features.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ensure(samples[i].features.size() == m.cols(),
           "EnergyDataset: inconsistent feature sizes");
    for (std::size_t j = 0; j < m.cols(); ++j)
      m(i, j) = samples[i].features[j];
  }
  return m;
}

std::vector<double> EnergyDataset::labels() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.normalized_energy);
  return out;
}

std::uint64_t EnergyDataset::training_digest() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](double value) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& s : samples) {
    for (double f : s.features) mix(f);
    mix(s.normalized_energy);
  }
  return h;
}

std::vector<std::string> EnergyDataset::groups() const {
  std::vector<std::string> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.benchmark);
  return out;
}

EnergyDataset EnergyDataset::subset(
    const std::vector<std::size_t>& idx) const {
  EnergyDataset out;
  out.feature_names = feature_names;
  out.samples.reserve(idx.size());
  for (auto i : idx) {
    ensure(i < samples.size(), "EnergyDataset::subset: index out of range");
    out.samples.push_back(samples[i]);
  }
  return out;
}

EnergyDataset EnergyDataset::subset_benchmark(
    const std::string& benchmark) const {
  EnergyDataset out;
  out.feature_names = feature_names;
  for (const auto& s : samples)
    if (s.benchmark == benchmark) out.samples.push_back(s);
  return out;
}

DataAcquisition::DataAcquisition(hwsim::NodeSimulator& node,
                                 AcquisitionOptions options)
    : node_(node), options_(options), rng_(options.seed) {}

DataAcquisition::SweepPoint DataAcquisition::traced_run(
    const workload::Benchmark& benchmark, const SystemConfig& config) {
  trace::Otf2Archive archive;
  // Energy-only trace (empty event set) -- the metric plugin records the
  // HDEEM accumulator at region enter/exit.
  trace::TraceListener listener(
      archive, pmc::EventSet{},
      pmc::CounterSampler(rng_.fork("trace"), options_.counter_noise));

  instr::ExecutionContext ctx(node_);
  ctx.apply(config);
  instr::ScorepRuntime runtime(benchmark,
                               instr::InstrumentationFilter::instrument_all());
  runtime.add_listener(&listener);
  runtime.execute(ctx);
  ++runs_;

  const trace::Otf2PostProcessor post(archive,
                                      std::string(instr::kPhaseRegionName));
  SweepPoint p;
  p.energy = post.total_energy();
  p.time = post.total_time();
  return p;
}

std::map<std::string, double> DataAcquisition::collect_counter_rates(
    const workload::Benchmark& benchmark, int threads,
    const std::vector<hwsim::PmuEvent>& events) {
  const auto& spec = node_.spec();
  SystemConfig calib{threads, spec.calibration_core,
                     spec.calibration_uncore};
  const workload::Benchmark short_app =
      benchmark.with_iterations(options_.phase_iterations);

  std::map<std::string, double> merged;
  for (const auto& set : pmc::multiplex_schedule(events)) {
    trace::Otf2Archive archive;
    trace::TraceListener listener(
        archive, set,
        pmc::CounterSampler(rng_.fork("counters"), options_.counter_noise));
    instr::ExecutionContext ctx(node_);
    ctx.apply(calib);
    instr::ScorepRuntime runtime(
        short_app, instr::InstrumentationFilter::instrument_all());
    runtime.add_listener(&listener);
    runtime.execute(ctx);
    ++runs_;
    const trace::Otf2PostProcessor post(archive,
                                        std::string(instr::kPhaseRegionName));
    for (const auto& [name, rate] : post.mean_counter_rates()) {
      if (name != std::string(trace::kEnergyMetricName)) merged[name] = rate;
    }
  }
  return merged;
}

namespace {

/// Accumulates per-region counter sums and durations from region exits.
class RegionCounterCollector final : public instr::RegionListener {
 public:
  RegionCounterCollector(const pmc::EventSet& set,
                         pmc::CounterSampler& sampler)
      : set_(set), sampler_(sampler) {}

  void on_exit(const instr::RegionExit& e) override {
    if (e.type == instr::RegionType::kPhase) return;
    auto& acc = per_region_[std::string(e.region)];
    acc.time += e.duration().value();
    for (const auto& [event, value] : sampler_.sample(set_, e.counters))
      acc.counts[event] += value;
  }

  struct Accumulator {
    double time = 0.0;
    std::map<hwsim::PmuEvent, double> counts;
  };
  [[nodiscard]] const std::map<std::string, Accumulator>& per_region() const {
    return per_region_;
  }

 private:
  const pmc::EventSet& set_;
  pmc::CounterSampler& sampler_;
  std::map<std::string, Accumulator> per_region_;
};

}  // namespace

std::map<std::string, std::map<std::string, double>>
DataAcquisition::collect_region_counter_rates(
    const workload::Benchmark& benchmark, int threads,
    const std::vector<hwsim::PmuEvent>& events) {
  const auto& spec = node_.spec();
  const SystemConfig calib{threads, spec.calibration_core,
                           spec.calibration_uncore};
  const workload::Benchmark short_app =
      benchmark.with_iterations(options_.phase_iterations);

  std::map<std::string, std::map<std::string, double>> rates;
  pmc::CounterSampler sampler(rng_.fork("region-counters"),
                              options_.counter_noise);
  for (const auto& set : pmc::multiplex_schedule(events)) {
    RegionCounterCollector collector(set, sampler);
    instr::ExecutionContext ctx(node_);
    ctx.apply(calib);
    instr::ScorepRuntime runtime(
        short_app, instr::InstrumentationFilter::instrument_all());
    runtime.add_listener(&collector);
    runtime.execute(ctx);
    ++runs_;
    for (const auto& [region, acc] : collector.per_region()) {
      ensure(acc.time > 0, "collect_region_counter_rates: zero region time");
      for (const auto& [event, count] : acc.counts) {
        rates[region][std::string(hwsim::pmu_event_name(event))] =
            count / acc.time;
      }
    }
  }
  return rates;
}

std::vector<EnergySample> DataAcquisition::acquire_benchmark(
    const workload::Benchmark& benchmark) {
  const auto& spec = node_.spec();
  std::vector<EnergySample> samples;
  const workload::Benchmark short_app =
      benchmark.with_iterations(options_.phase_iterations);
  for (int threads : options_.thread_counts) {
    const auto rates =
        collect_counter_rates(benchmark, threads, paper_feature_events());

    // Reference (calibration) energy for normalization.
    const SweepPoint calib = traced_run(
        short_app, SystemConfig{threads, spec.calibration_core,
                                spec.calibration_uncore});
    ensure(calib.energy.value() > 0,
           "DataAcquisition: zero calibration energy");

    for (std::size_t ci = 0; ci < spec.core_grid.size();
         ci += static_cast<std::size_t>(options_.cf_stride)) {
      const CoreFreq cf = spec.core_grid.at(ci);
      for (std::size_t ui = 0; ui < spec.uncore_grid.size();
           ui += static_cast<std::size_t>(options_.ucf_stride)) {
        const UncoreFreq ucf = spec.uncore_grid.at(ui);
        const SweepPoint p =
            traced_run(short_app, SystemConfig{threads, cf, ucf});
        EnergySample s;
        s.benchmark = benchmark.name();
        s.threads = threads;
        s.cf = cf;
        s.ucf = ucf;
        s.features = build_features(rates, paper_feature_events(), cf, ucf);
        s.normalized_energy = p.energy / calib.energy;
        s.normalized_time = p.time / calib.time;
        s.normalized_power =
            s.normalized_energy / std::max(1e-12, s.normalized_time);
        samples.push_back(std::move(s));
      }
    }
  }
  return samples;
}

namespace {

Json sample_to_json(const EnergySample& s) {
  Json j = Json::object();
  j["threads"] = s.threads;
  j["cf_mhz"] = s.cf.as_mhz();
  j["ucf_mhz"] = s.ucf.as_mhz();
  Json features = Json::array();
  for (double v : s.features) features.push_back(v);
  j["features"] = std::move(features);
  j["normalized_energy"] = s.normalized_energy;
  j["normalized_power"] = s.normalized_power;
  j["normalized_time"] = s.normalized_time;
  return j;
}

int read_int(JsonReader& r) {
  return static_cast<int>(std::llround(r.number()));
}

/// Reads what sample_to_json wrote, keys in sorted order.
EnergySample read_sample(JsonReader& r, const std::string& benchmark,
                         std::size_t feature_count) {
  EnergySample s;
  s.benchmark = benchmark;
  r.begin_object();
  r.key("cf_mhz");
  s.cf = CoreFreq::mhz(read_int(r));
  r.key("features");
  s.features.reserve(feature_count);
  r.begin_array();
  while (r.next_element()) s.features.push_back(r.number());
  r.key("normalized_energy");
  s.normalized_energy = r.number();
  r.key("normalized_power");
  s.normalized_power = r.number();
  r.key("normalized_time");
  s.normalized_time = r.number();
  r.key("threads");
  s.threads = read_int(r);
  r.key("ucf_mhz");
  s.ucf = UncoreFreq::mhz(read_int(r));
  r.end_object();
  return s;
}

}  // namespace

Fingerprint DataAcquisition::base_fingerprint() const {
  Fingerprint fp;
  fp.add_digest("node", node_.state_fingerprint())
      .add_digest("rng", rng_.state_hash());
  for (int t : options_.thread_counts) fp.add("thread_count", t);
  fp.add("cf_stride", options_.cf_stride)
      .add("ucf_stride", options_.ucf_stride)
      .add("phase_iterations", options_.phase_iterations)
      .add("counter_noise", options_.counter_noise)
      .add("seed", options_.seed);
  return fp;
}

std::string DataAcquisition::noise_key(
    std::size_t i, const workload::Benchmark& benchmark) const {
  return "acquire-" + std::to_string(acquire_calls_) + "-" +
         std::to_string(i) + "-" + benchmark.name();
}

EnergyDataset DataAcquisition::acquire(
    const std::vector<workload::Benchmark>& benchmarks) {
  std::vector<AcquisitionSummary::Sweep> sweeps;
  return acquire_sweeps(benchmarks, sweeps);
}

EnergyDataset DataAcquisition::acquire_sweeps(
    const std::vector<workload::Benchmark>& benchmarks,
    std::vector<AcquisitionSummary::Sweep>& sweeps) {
  EnergyDataset ds;
  ds.feature_names = model::feature_names(paper_feature_events());

  // One task per benchmark, each sweeping on its own node clone with
  // jitter keyed by (acquire() call, benchmark); samples are concatenated
  // in benchmark order, so the dataset does not depend on the job count.
  struct BenchOutcome {
    std::vector<EnergySample> samples;
    AcquisitionSummary::Sweep sweep;
  };
  const Fingerprint base_fp = base_fingerprint();
  auto outcomes = parallel_map_ordered(
      benchmarks.size(),
      [&](std::size_t i) {
        const std::string key = noise_key(i, benchmarks[i]);
        return store::cached(
            options_.store, "acquire/" + key,
            [&] {
              return Fingerprint(base_fp)
                  .add("noise_key", key)
                  .add_digest("app", benchmarks[i].fingerprint_digest())
                  .digest();
            },
            [&](std::string_view payload) {
              // A full sweep yields exactly (thread counts x strided CF x
              // strided UCF) samples; any other size is a payload from
              // another schema or a truncated sweep.
              const auto& spec = node_.spec();
              const auto strided = [](std::size_t n, int stride) {
                return (n + static_cast<std::size_t>(stride) - 1) /
                       static_cast<std::size_t>(stride);
              };
              const std::size_t expected =
                  options_.thread_counts.size() *
                  strided(spec.core_grid.size(), options_.cf_stride) *
                  strided(spec.uncore_grid.size(), options_.ucf_stride);
              BenchOutcome out;
              JsonReader r(payload);
              r.begin_object();
              r.key("elapsed");
              out.sweep.elapsed = Seconds(r.number());
              r.key("runs");
              out.sweep.runs = static_cast<long>(r.number());
              r.key("samples");
              out.samples.reserve(expected);
              r.begin_array();
              while (r.next_element())
                out.samples.push_back(read_sample(r, benchmarks[i].name(),
                                                  ds.feature_names.size()));
              r.end_object();
              r.end();
              ensure(out.samples.size() == expected,
                     "payload covers a different sweep");
              return out;
            },
            [&] {
              hwsim::NodeSimulator node = node_.clone(key);
              DataAcquisition acquisition(node, options_);
              const Seconds t0 = node.now();
              BenchOutcome out;
              out.samples = acquisition.acquire_benchmark(benchmarks[i]);
              out.sweep.runs = acquisition.runs_performed();
              out.sweep.elapsed = node.now() - t0;
              return out;
            },
            [](const BenchOutcome& out) {
              Json samples = Json::array();
              for (const EnergySample& s : out.samples)
                samples.push_back(sample_to_json(s));
              Json payload = Json::object();
              payload["samples"] = std::move(samples);
              payload["runs"] = static_cast<std::int64_t>(out.sweep.runs);
              payload["elapsed"] = out.sweep.elapsed.value();
              return payload;
            });
      },
      options_.jobs);

  sweeps.clear();
  for (auto& out : outcomes) {
    for (auto& s : out.samples) ds.samples.push_back(std::move(s));
    sweeps.push_back(out.sweep);
  }
  replay(AcquisitionSummary{.sweeps = sweeps});
  return ds;
}

AcquisitionSummary DataAcquisition::summarize(
    const std::vector<workload::Benchmark>& benchmarks,
    std::optional<EnergyDataset>& acquired) {
  return store::cached(
      options_.store, "acquire/summary-" + std::to_string(acquire_calls_),
      [&] {
        Fingerprint fp = base_fingerprint();
        for (std::size_t i = 0; i < benchmarks.size(); ++i) {
          fp.add("noise_key", noise_key(i, benchmarks[i]))
              .add_digest("app", benchmarks[i].fingerprint_digest());
        }
        return fp.digest();
      },
      [&](std::string_view payload) {
        AcquisitionSummary summary;
        JsonReader r(payload);
        r.begin_object();
        r.key("digest");
        const std::string_view hex = r.string();
        const auto [end, ec] = std::from_chars(
            hex.data(), hex.data() + hex.size(), summary.training_digest, 16);
        ensure(ec == std::errc{} && end == hex.data() + hex.size() &&
                   hex.size() == 16,
               "summary digest is not 16 hex digits");
        r.key("samples");
        summary.samples = static_cast<std::size_t>(r.number());
        r.key("sweeps");
        r.begin_array();
        while (r.next_element()) {
          AcquisitionSummary::Sweep sweep;
          r.begin_object();
          r.key("elapsed");
          sweep.elapsed = Seconds(r.number());
          r.key("runs");
          sweep.runs = static_cast<long>(r.number());
          r.end_object();
          summary.sweeps.push_back(sweep);
        }
        r.end_object();
        r.end();
        ensure(summary.sweeps.size() == benchmarks.size(),
               "summary covers a different benchmark list");
        return summary;
      },
      [&] {
        AcquisitionSummary summary;
        acquired = acquire_sweeps(benchmarks, summary.sweeps);
        summary.training_digest = acquired->training_digest();
        summary.samples = acquired->samples.size();
        return summary;
      },
      [](const AcquisitionSummary& summary) {
        Json sweeps = Json::array();
        for (const auto& sweep : summary.sweeps) {
          Json j = Json::object();
          j["runs"] = static_cast<std::int64_t>(sweep.runs);
          j["elapsed"] = sweep.elapsed.value();
          sweeps.push_back(std::move(j));
        }
        Json payload = Json::object();
        payload["digest"] = Fingerprint::to_hex(summary.training_digest);
        payload["samples"] = summary.samples;
        payload["sweeps"] = std::move(sweeps);
        return payload;
      });
}

void DataAcquisition::replay(const AcquisitionSummary& summary) {
  Seconds total{0};
  for (const auto& sweep : summary.sweeps) {
    runs_ += sweep.runs;
    total += sweep.elapsed;
  }
  node_.idle(total);
  ++acquire_calls_;
}

CounterSurvey DataAcquisition::survey_counters(
    const std::vector<workload::Benchmark>& benchmarks) {
  const auto& spec = node_.spec();
  CounterSurvey survey;
  std::vector<std::map<std::string, double>> rows;

  std::vector<hwsim::PmuEvent> all_events(hwsim::all_pmu_events().begin(),
                                          hwsim::all_pmu_events().end());
  for (const auto& benchmark : benchmarks) {
    for (int threads : options_.thread_counts) {
      auto rates = collect_counter_rates(benchmark, threads, all_events);
      // Dependent variable: mean node power at the calibration point.
      const SweepPoint p = traced_run(
          benchmark.with_iterations(options_.phase_iterations),
          SystemConfig{threads, spec.calibration_core,
                       spec.calibration_uncore});
      survey.benchmark.push_back(benchmark.name());
      survey.mean_node_power.push_back(p.energy.value() /
                                       std::max(1e-12, p.time.value()));
      rows.push_back(std::move(rates));
    }
  }

  survey.rates = stats::Matrix(rows.size(), all_events.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < all_events.size(); ++j) {
      const std::string name(hwsim::pmu_event_name(all_events[j]));
      auto it = rows[i].find(name);
      survey.rates(i, j) = it != rows[i].end() ? it->second : 0.0;
    }
  }
  return survey;
}

}  // namespace ecotune::model
