// Machine-readable performance report of the components every
// table/figure driver funnels through: the model/NN hot path (MLP
// training, scalar vs batched inference, the full-grid frequency
// recommendation), the measurement store's hit-path lookups and its
// open/parse time, and the simulation and instrumentation substrate behind
// data acquisition and DTA (execution-time and counter models, one node
// kernel run, a traced application run, trace post-processing, and an RRL
// production run). Emits JSON so the perf trajectory can be tracked across
// PRs (BENCH_*.json at the repo root). It is the repo's one micro-timing
// tool; `ECOTUNE_SIMD=off perf_report` gives the plain-C++ side of every
// SIMD-dispatched case.
//
//   perf_report [--out FILE] [--repeats N] [--quick]
//               [--extra key=value]...
//   perf_report --compare OLD.json NEW.json
//   perf_report --trajectory [DIR]
//
// Workloads mirror the reproduction pipeline: the training benchmark runs
// at fig5 scale (19152 x 9 standardized samples, 10 consecutive epochs on
// one network, running ADAM timestep), inference sweeps the 14 x 18
// Haswell-EP frequency grid, and the substrate cases run Lulesh (its first
// region at 24 threads and 2400/1700 MHz; 2, 10 and 5 iterations for the
// traced run, the post-processed trace and the RRL run, jitter 0). Each
// metric reports the minimum over --repeats runs (the standard robust
// microbenchmark estimator).
//
// --compare and --trajectory render previously written reports instead of
// benchmarking: compare prints an old-vs-new speedup table (all metrics
// are lower-is-better, so speedup = old/new), trajectory tabulates every
// BENCH_PR*.json checked in at the repo root in PR order. Both understand
// the two checked-in schemas: ecotune-perf-report/1 (metrics under
// "results") and the older ecotune-perf-trajectory/1 (metrics under
// "current").
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "common/json.hpp"
#include "common/numbers.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "hwsim/cpu_spec.hpp"
#include "hwsim/node.hpp"
#include "instr/scorep_runtime.hpp"
#include "model/energy_model.hpp"
#include "model/features.hpp"
#include "nn/mlp.hpp"
#include "pmc/counter_sampler.hpp"
#include "readex/rrl.hpp"
#include "stats/linalg.hpp"
#include "store/measurement_store.hpp"
#include "trace/post_processor.hpp"
#include "trace/trace_listener.hpp"
#include "workload/suite.hpp"

using namespace ecotune;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string out;
  int repeats = 3;
  bool quick = false;
  std::vector<std::pair<std::string, std::string>> extra;
};

[[noreturn]] void usage(int code) {
  std::cout << "usage: perf_report [--out FILE] [--repeats N] [--quick]\n"
               "                   [--extra key=value]...\n"
               "       perf_report --compare OLD.json NEW.json\n"
               "       perf_report --trajectory [DIR]\n"
               "  --out FILE       write the JSON report here (default: "
               "stdout)\n"
               "  --repeats N      repetitions per metric; the minimum is "
               "reported (default 3)\n"
               "  --quick          smaller workloads (CI smoke test)\n"
               "  --extra k=v      attach an externally measured metric "
               "(e.g. fig5_wall_seconds=12)\n"
               "  --compare A B    print a speedup table between two "
               "checked-in reports\n"
               "  --trajectory     tabulate all BENCH_PR*.json in DIR "
               "(default: cwd) in PR order\n";
  std::exit(code);
}

/// Flat metric map from either checked-in report schema. Non-metric
/// numeric bookkeeping ("pr") is excluded; string fields filter out via
/// the is_number() check.
std::map<std::string, double> load_metrics(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "error: cannot read " << path << '\n';
    std::exit(2);
  }
  std::stringstream ss;
  ss << f.rdbuf();
  std::map<std::string, double> out;
  try {
    const Json j = Json::parse(ss.str());
    const std::string schema = j.at("schema").as_string();
    const Json* src = nullptr;
    if (schema == "ecotune-perf-report/1") {
      src = &j.at("results");
    } else if (schema == "ecotune-perf-trajectory/1") {
      src = &j.at("current");
    } else {
      std::cerr << "error: " << path << ": unknown schema '" << schema
                << "'\n";
      std::exit(2);
    }
    for (const auto& [k, v] : src->as_object())
      if (k != "pr" && v.is_number()) out[k] = v.as_number();
  } catch (const std::exception& e) {
    std::cerr << "error: " << path << ": " << e.what() << '\n';
    std::exit(2);
  }
  return out;
}

int run_compare(const std::string& old_path, const std::string& new_path) {
  const auto before = load_metrics(old_path);
  const auto after = load_metrics(new_path);
  std::map<std::string, std::pair<const double*, const double*>> rows;
  for (const auto& [k, v] : before) rows[k].first = &v;
  for (const auto& [k, v] : after) rows[k].second = &v;
  std::size_t width = 6;
  for (const auto& [k, row] : rows) width = std::max(width, k.size());
  std::cout << std::left << std::setw(static_cast<int>(width)) << "metric"
            << std::right << std::setw(14) << "old" << std::setw(14)
            << "new" << std::setw(10) << "speedup" << '\n';
  for (const auto& [k, row] : rows) {
    std::cout << std::left << std::setw(static_cast<int>(width)) << k
              << std::right << std::fixed << std::setprecision(2);
    if (row.first != nullptr)
      std::cout << std::setw(14) << *row.first;
    else
      std::cout << std::setw(14) << "-";
    if (row.second != nullptr)
      std::cout << std::setw(14) << *row.second;
    else
      std::cout << std::setw(14) << "-";
    // Every tracked metric is lower-is-better (ns/us/seconds per unit of
    // work), so the improvement factor is old/new.
    if (row.first != nullptr && row.second != nullptr && *row.second > 0.0)
      std::cout << std::setw(9) << *row.first / *row.second << 'x';
    else
      std::cout << std::setw(10) << "-";
    std::cout << '\n';
  }
  return 0;
}

int run_trajectory(const std::string& dir) {
  namespace fs = std::filesystem;
  std::map<int, std::map<std::string, double>> by_pr;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_PR", 0) != 0) continue;
    const auto dot = name.find(".json");
    if (dot == std::string::npos) continue;
    const std::string num = name.substr(8, dot - 8);
    int pr = 0;
    const auto res =
        std::from_chars(num.data(), num.data() + num.size(), pr, 10);
    if (res.ec != std::errc() || res.ptr != num.data() + num.size())
      continue;
    by_pr[pr] = load_metrics(entry.path().string());
  }
  if (ec) {
    std::cerr << "error: cannot list " << dir << ": " << ec.message()
              << '\n';
    return 2;
  }
  if (by_pr.empty()) {
    std::cerr << "error: no BENCH_PR*.json found in " << dir << '\n';
    return 2;
  }
  std::map<std::string, bool> metrics;
  for (const auto& [pr, m] : by_pr)
    for (const auto& [k, v] : m) metrics[k] = true;
  std::size_t width = 6;
  for (const auto& [k, unused] : metrics) width = std::max(width, k.size());
  std::cout << std::left << std::setw(static_cast<int>(width)) << "metric"
            << std::right;
  for (const auto& [pr, m] : by_pr)
    std::cout << std::setw(14) << ("PR" + std::to_string(pr));
  std::cout << '\n';
  for (const auto& [k, unused] : metrics) {
    std::cout << std::left << std::setw(static_cast<int>(width)) << k
              << std::right << std::fixed << std::setprecision(2);
    for (const auto& [pr, m] : by_pr) {
      const auto it = m.find(k);
      if (it == m.end())
        std::cout << std::setw(14) << "-";
      else
        std::cout << std::setw(14) << it->second;
    }
    std::cout << '\n';
  }
  return 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--out") == 0) {
      o.out = next("--out");
    } else if (std::strcmp(argv[i], "--repeats") == 0) {
      // Strict parse (repo convention since the PR-3 CLI hardening):
      // garbage or out-of-range values exit 2 instead of being coerced.
      const std::string v = next("--repeats");
      int repeats = 0;
      const auto res =
          std::from_chars(v.data(), v.data() + v.size(), repeats, 10);
      if (res.ec != std::errc() || res.ptr != v.data() + v.size() ||
          repeats < 1) {
        std::cerr << "error: --repeats expects an integer >= 1, got '" << v
                  << "'\n";
        std::exit(2);
      }
      o.repeats = repeats;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      o.quick = true;
    } else if (std::strcmp(argv[i], "--extra") == 0) {
      const std::string kv = next("--extra");
      const auto eq = kv.find('=');
      if (eq == std::string::npos) {
        std::cerr << "error: --extra expects key=value, got '" << kv << "'\n";
        std::exit(2);
      }
      o.extra.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(0);
    } else {
      std::cerr << "error: unknown argument '" << argv[i] << "'\n";
      usage(2);
    }
  }
  return o;
}

double min_of(int repeats, double (*fn)(const Options&), const Options& o) {
  double best = fn(o);
  for (int r = 1; r < repeats; ++r) best = std::min(best, fn(o));
  return best;
}

// --- synthetic model/NN inputs -----------------------------------------
//
// Fixed-seed stand-ins shaped like the acquired data, so the metrics stay
// comparable across the BENCH_*.json trajectory.

/// Standardized training set: 9 N(0,1) features, labels in [0.5, 1.5).
void synthetic_training_data(std::size_t samples, stats::Matrix& x,
                             std::vector<double>& y) {
  Rng data_rng(0xDA7A);
  x = stats::Matrix(samples, 9);
  y.resize(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    for (std::size_t j = 0; j < 9; ++j) x(i, j) = data_rng.normal(0.0, 1.0);
    y[i] = data_rng.uniform(0.5, 1.5);
  }
}

/// EnergyModel of `members` untrained (He-initialized) ensemble members
/// behind an identity scaler. Inference cost does not depend on the weight
/// values, so the grid cases need no training.
model::EnergyModel untrained_ensemble_model(int members) {
  Json j = Json::object();
  Json scaler = Json::object();
  Json mean = Json::array();
  Json scale = Json::array();
  for (int k = 0; k < 9; ++k) {
    mean.push_back(0.0);
    scale.push_back(1.0);
  }
  scaler["mean"] = std::move(mean);
  scaler["scale"] = std::move(scale);
  j["scaler"] = std::move(scaler);
  Json nets = Json::array();
  for (int m = 0; m < members; ++m) {
    Rng rng(0x9EED + static_cast<std::uint64_t>(m));
    nets.push_back(nn::Mlp(nn::MlpConfig{}, rng).to_json());
  }
  j["networks"] = std::move(nets);
  j["epochs"] = 10;
  return model::EnergyModel::from_json(j);
}

/// 252-row (14x18 grid) random 9-feature batch.
stats::Matrix synthetic_grid_batch() {
  const std::size_t grid = 14 * 18;
  stats::Matrix x(grid, 9);
  Rng fill(8);
  for (std::size_t r = 0; r < grid; ++r)
    for (std::size_t c = 0; c < 9; ++c) x(r, c) = fill.uniform(0.0, 1.0);
  return x;
}

/// Paper-counter rate map, 1e8 counts/s each.
std::map<std::string, double> synthetic_counter_rates() {
  std::map<std::string, double> rates;
  for (auto e : model::paper_feature_events())
    rates[std::string(hwsim::pmu_event_name(e))] = 1e8;
  return rates;
}

double bench_train_epoch(const Options& o) {
  const std::size_t n = o.quick ? 2048 : 19152;
  const int epochs = o.quick ? 3 : 10;
  stats::Matrix x;
  std::vector<double> y;
  synthetic_training_data(n, x, y);
  Rng rng(42);
  nn::Mlp net(nn::MlpConfig{}, rng);
  Rng shuffle(43);
  const auto t0 = Clock::now();
  for (int e = 0; e < epochs; ++e) net.train_epoch(x, y, shuffle);
  return seconds_since(t0) / epochs / static_cast<double>(n) * 1e9;
}

double bench_forward_scalar(const Options& o) {
  const int iters = o.quick ? 100000 : 1000000;
  Rng rng(7);
  const nn::Mlp net(nn::MlpConfig{}, rng);
  std::vector<double> x(9, 0.3);
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    x[8] = static_cast<double>(i % 17) * 0.1;
    acc += net.predict(x);
  }
  const double ns = seconds_since(t0) / iters * 1e9;
  if (acc == 0.12345) std::cerr << "";  // keep the accumulator alive
  return ns;
}

double bench_forward_batch(const Options& o) {
  const int iters = o.quick ? 1000 : 10000;
  Rng rng(7);
  const nn::Mlp net(nn::MlpConfig{}, rng);
  const stats::Matrix x = synthetic_grid_batch();
  const std::size_t grid = x.rows();
  nn::Workspace ws;
  std::vector<double> out(grid);
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    net.forward_batch(x, std::span<double>(out), ws);
    acc += out[static_cast<std::size_t>(i) % grid];
  }
  const double ns =
      seconds_since(t0) / iters / static_cast<double>(grid) * 1e9;
  if (acc == 0.12345) std::cerr << "";
  return ns;
}

double bench_grid_recommend(const Options& o) {
  const int iters = o.quick ? 200 : 2000;
  const model::EnergyModel m = untrained_ensemble_model(5);
  const hwsim::CpuSpec spec = hwsim::haswell_ep_spec();
  const std::map<std::string, double> rates = synthetic_counter_rates();
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    acc += m.recommend(rates, spec).predicted_normalized_energy;
  }
  const double us = seconds_since(t0) / iters * 1e6;
  if (acc == 0.12345) std::cerr << "";
  return us;
}

double bench_model_predict(const Options& o) {
  const int iters = o.quick ? 50000 : 500000;
  const model::EnergyModel m = untrained_ensemble_model(5);
  std::vector<double> f(9, 0.5);
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    f[8] = static_cast<double>(i % 13) * 0.2;
    acc += m.predict(f);
  }
  const double ns = seconds_since(t0) / iters * 1e9;
  if (acc == 0.12345) std::cerr << "";
  return ns;
}

// --- measurement-store contention --------------------------------------
//
// Concurrent hit-path lookups against the 16-shard in-memory index: the
// load the tuning service's worker pool puts on the shared store. The
// metric names keep their "shard16" so the trajectory stays continuous.

std::vector<store::MeasurementKey> store_bench_keys(std::size_t count) {
  std::vector<store::MeasurementKey> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    store::MeasurementKey key;
    key.task = "contention/task-";
    key.task += std::to_string(i);
    key.fingerprint = 0x9e3779b97f4a7c15ull ^ (i * 0x100000001b3ull);
    keys.push_back(std::move(key));
  }
  return keys;
}

/// Populates (once per process) and returns the backing cache directory
/// shared by every store-contention cell.
const std::string& store_bench_dir(const Options& o) {
  static std::string dir;
  if (dir.empty()) {
    namespace fs = std::filesystem;
    const fs::path path =
        fs::temp_directory_path() / "ecotune_perf_report_store";
    std::error_code ec;
    fs::remove_all(path, ec);
    store::MeasurementStore writer;
    writer.open(path.string(), store::StoreMode::kReadWrite, "bench");
    const auto keys = store_bench_keys(o.quick ? 256 : 2048);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      Json payload = Json::object();
      payload["value"] = static_cast<double>(i) * 0.5;
      writer.insert(keys[i], payload);
    }
    dir = path.string();
  }
  return dir;
}

double bench_store_lookup(const Options& o, int threads) {
  const auto keys = store_bench_keys(o.quick ? 256 : 2048);
  const std::size_t rounds = o.quick ? 8 : 64;
  // ro mode keeps the disk appender (and its mutex) idle: the cell
  // measures pure index contention on the hit path, which never misses
  // and never writes.
  store::MeasurementStore store;
  store.open(store_bench_dir(o), store::StoreMode::kReadOnly, "bench");
  ThreadPool pool(threads);
  const std::size_t n = keys.size();
  const auto t0 = Clock::now();
  pool.run(static_cast<std::size_t>(threads), [&](std::size_t task) {
    const std::size_t offset = task * (n / static_cast<std::size_t>(threads));
    std::size_t alive = 0;
    for (std::size_t r = 0; r < rounds; ++r)
      for (std::size_t i = 0; i < n; ++i)
        if (store.lookup(keys[(offset + i) % n]).has_value()) ++alive;
    if (alive != rounds * n) {
      std::cerr << "error: store lookup missed on the hit path\n";
      std::exit(1);
    }
  });
  const double ops =
      static_cast<double>(threads) * static_cast<double>(rounds * n);
  return seconds_since(t0) / ops * 1e9;
}

double bench_store_t1(const Options& o) { return bench_store_lookup(o, 1); }
double bench_store_t4(const Options& o) { return bench_store_lookup(o, 4); }
double bench_store_t16(const Options& o) { return bench_store_lookup(o, 16); }

// --- measurement-store open --------------------------------------------
//
// Opening the store indexes the envelope of every line of
// measurements.jsonl (payloads are read on their first hit), which is what
// a warm session pays before its first lookup. The synthetic store mimics
// a warm full-suite store: acquisition-sweep entries (samples with nine
// features and three normalized labels each) of about 300 KB per line.

constexpr const char* kStoreOpenDir = "ecotune_perf_report_store_open";

/// Writes (once per process) the synthetic store, 4 MB (1 MB with
/// --quick), and returns its directory.
const std::string& store_open_dir(const Options& o) {
  static std::string dir;
  if (dir.empty()) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() / kStoreOpenDir;
    std::error_code ec;
    fs::remove_all(path, ec);
    store::MeasurementStore writer;
    writer.open(path.string(), store::StoreMode::kReadWrite, "bench");
    Rng rng(14);
    const int entries = o.quick ? 4 : 14;
    for (int e = 0; e < entries; ++e) {
      Json samples = Json::array();
      for (int i = 0; i < 1000; ++i) {
        Json sample = Json::object();
        sample["cf_mhz"] = 1200 + 100 * (i % 14);
        sample["ucf_mhz"] = 1300 + 100 * (i % 18);
        sample["threads"] = 12 + 12 * (i % 2);
        Json features = Json::array();
        for (int k = 0; k < 7; ++k) features.push_back(rng.uniform(1e7, 1e10));
        features.push_back(1.2 + 0.1 * (i % 14));
        features.push_back(1.3 + 0.1 * (i % 18));
        sample["features"] = std::move(features);
        sample["normalized_energy"] = rng.uniform(0.8, 1.6);
        sample["normalized_power"] = rng.uniform(0.8, 1.6);
        sample["normalized_time"] = rng.uniform(0.8, 1.6);
        samples.push_back(std::move(sample));
      }
      Json payload = Json::object();
      payload["elapsed"] = rng.uniform(500.0, 1000.0);
      payload["runs"] = 1020;
      payload["samples"] = std::move(samples);
      const std::uint64_t fp = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(e);
      writer.insert({"acquire/sweep-" + std::to_string(e), fp}, payload);
    }
    dir = path.string();
  }
  return dir;
}

/// Milliseconds of MeasurementStore::open per MB of store file.
double bench_store_open(const Options& o) {
  namespace fs = std::filesystem;
  const std::string& dir = store_open_dir(o);
  const double mb =
      static_cast<double>(fs::file_size(fs::path(dir) / "measurements.jsonl")) /
      1e6;
  const auto t0 = Clock::now();
  store::MeasurementStore store;
  store.open(dir, store::StoreMode::kReadOnly, "bench");
  const double ms = seconds_since(t0) * 1e3;
  if (store.size() != (o.quick ? 4u : 14u)) {
    std::cerr << "error: synthetic store reopened with " << store.size()
              << " entries\n";
    std::exit(1);
  }
  return ms / mb;
}

// --- simulation and instrumentation substrate --------------------------
//
// The hwsim and instr costs behind every acquisition sweep and DTA step:
// one region through the execution-time and counter models, one node
// kernel run, a fully traced application run, trace post-processing, and
// an RRL production run.

const workload::Benchmark& lulesh() {
  return workload::BenchmarkSuite::by_name("Lulesh");
}

/// Lulesh's first region, at 24 threads and 2400/1700 MHz.
const hwsim::KernelTraits& bench_kernel() {
  return lulesh().regions()[0].traits;
}
constexpr int kBenchThreads = 24;
constexpr CoreFreq kBenchCore = CoreFreq::mhz(2400);
constexpr UncoreFreq kBenchUncore = UncoreFreq::mhz(1700);

double bench_perf_model(const Options& o) {
  const int iters = o.quick ? 100000 : 1000000;
  const hwsim::PerfModel model;
  const hwsim::KernelTraits& k = bench_kernel();
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i)
    acc += model.evaluate(k, kBenchThreads, kBenchCore, kBenchUncore)
               .time.value();
  const double ns = seconds_since(t0) / iters * 1e9;
  if (acc == 0.12345) std::cerr << "";
  return ns;
}

double bench_counter_model(const Options& o) {
  const int iters = o.quick ? 100000 : 1000000;
  const hwsim::CpuSpec spec = hwsim::haswell_ep_spec();
  const hwsim::KernelTraits& k = bench_kernel();
  const hwsim::PerfResult perf = hwsim::PerfModel{}.evaluate(
      k, kBenchThreads, kBenchCore, kBenchUncore);
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i)
    acc += hwsim::CounterModel::evaluate(spec, k, kBenchThreads, kBenchCore,
                                         kBenchUncore, perf)[0];
  const double ns = seconds_since(t0) / iters * 1e9;
  if (acc == 0.12345) std::cerr << "";
  return ns;
}

double bench_node_run_kernel(const Options& o) {
  const int iters = o.quick ? 20000 : 200000;
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(1));
  const hwsim::KernelTraits& k = bench_kernel();
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i)
    acc += node.run_kernel(k, kBenchThreads).time.value();
  const double ns = seconds_since(t0) / iters * 1e9;
  if (acc == 0.12345) std::cerr << "";
  return ns;
}

/// A node with no run-to-run jitter.
hwsim::NodeSimulator quiet_node(std::uint64_t seed) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 0, Rng(seed));
  node.set_jitter(0.0);
  return node;
}

double bench_traced_run(const Options& o) {
  const int iters = o.quick ? 200 : 2000;
  hwsim::NodeSimulator node = quiet_node(5);
  const workload::Benchmark app = lulesh().with_iterations(2);
  std::size_t records = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    trace::Otf2Archive archive;
    trace::TraceListener listener(archive, pmc::EventSet{},
                                  pmc::CounterSampler(Rng(6), 0.0));
    instr::ExecutionContext ctx(node);
    instr::ScorepRuntime runtime(
        app, instr::InstrumentationFilter::instrument_all());
    runtime.add_listener(&listener);
    (void)runtime.execute(ctx);
    records += archive.records().size();
  }
  const double us = seconds_since(t0) / iters * 1e6;
  if (records == 12345) std::cerr << "";
  return us;
}

double bench_trace_post_process(const Options& o) {
  const int iters = o.quick ? 200 : 2000;
  hwsim::NodeSimulator node = quiet_node(7);
  const workload::Benchmark app = lulesh().with_iterations(10);
  trace::Otf2Archive archive;
  trace::TraceListener listener(
      archive,
      pmc::EventSet({hwsim::PmuEvent::kTOT_INS, hwsim::PmuEvent::kLD_INS}),
      pmc::CounterSampler(Rng(8), 0.0));
  instr::ExecutionContext ctx(node);
  instr::ScorepRuntime runtime(app,
                               instr::InstrumentationFilter::instrument_all());
  runtime.add_listener(&listener);
  (void)runtime.execute(ctx);
  std::size_t phases = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    const trace::Otf2PostProcessor post(archive,
                                        std::string(instr::kPhaseRegionName));
    phases += post.phase_instances().size();
  }
  const double us = seconds_since(t0) / iters * 1e6;
  if (phases == 12345) std::cerr << "";
  return us;
}

double bench_rrl_run(const Options& o) {
  const int iters = o.quick ? 200 : 2000;
  hwsim::NodeSimulator node = quiet_node(9);
  const workload::Benchmark app = lulesh().with_iterations(5);
  // The significant regions get one tuned configuration; the filter
  // instruments exactly those and the phase, as DTA configures it.
  readex::TuningModel model;
  for (const auto& r : app.regions())
    if (r.traits.total_instructions > 1e9)
      model.add_region(r.name, {kBenchThreads, kBenchCore, kBenchUncore});
  auto filter = instr::InstrumentationFilter::instrument_all();
  for (const auto& r : app.regions())
    if (!model.lookup(r.name)) filter.exclude(r.name);
  const SystemConfig default_config{24, CoreFreq::mhz(2500),
                                    UncoreFreq::mhz(3000)};
  double acc = 0.0;
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i)
    acc += readex::run_with_rrl(app, node, model, filter, default_config)
               .run.wall_time.value();
  const double us = seconds_since(t0) / iters * 1e6;
  if (acc == 0.12345) std::cerr << "";
  return us;
}

}  // namespace

int main(int argc, char** argv) {
  // Report-rendering modes: no benchmarking, exit before the bench setup.
  if (argc > 1 && std::strcmp(argv[1], "--compare") == 0) {
    if (argc != 4) {
      std::cerr << "error: --compare needs exactly two report files\n";
      return 2;
    }
    return run_compare(argv[2], argv[3]);
  }
  if (argc > 1 && std::strcmp(argv[1], "--trajectory") == 0) {
    if (argc > 3) {
      std::cerr << "error: --trajectory takes at most one directory\n";
      return 2;
    }
    return run_trajectory(argc == 3 ? argv[2] : ".");
  }

  const Options o = parse(argc, argv);

  const std::pair<const char*, double (*)(const Options&)> cases[] = {
      {"mlp_train_epoch_ns_per_sample", bench_train_epoch},
      {"mlp_forward_scalar_ns_per_point", bench_forward_scalar},
      {"mlp_forward_batch_ns_per_point", bench_forward_batch},
      {"grid_recommend_us_per_call", bench_grid_recommend},
      {"energy_model_predict_ns_per_call", bench_model_predict},
      {"store_lookup_shard16_t1_ns_per_op", bench_store_t1},
      {"store_lookup_shard16_t4_ns_per_op", bench_store_t4},
      {"store_lookup_shard16_t16_ns_per_op", bench_store_t16},
      {"store_open_ms_per_mb", bench_store_open},
      {"perf_model_evaluate_ns_per_call", bench_perf_model},
      {"counter_model_evaluate_ns_per_call", bench_counter_model},
      {"node_run_kernel_ns_per_call", bench_node_run_kernel},
      {"traced_app_run_us_per_run", bench_traced_run},
      {"trace_post_process_us_per_call", bench_trace_post_process},
      {"rrl_production_run_us_per_run", bench_rrl_run},
  };
  Json results = Json::object();
  for (const auto& [metric, fn] : cases)
    results[metric] = min_of(o.repeats, fn, o);
  {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::remove_all(fs::temp_directory_path() / "ecotune_perf_report_store",
                   ec);
    fs::remove_all(fs::temp_directory_path() / kStoreOpenDir, ec);
  }
  for (const auto& [k, v] : o.extra) {
    double num = 0.0;
    if (ecotune::parse_double(v, num)) {
      results[k] = num;
    } else {
      results[k] = v;
    }
  }

  Json report = Json::object();
  report["schema"] = std::string("ecotune-perf-report/1");
  Json workloads = Json::object();
  workloads["mlp_train_epoch"] = std::string(
      o.quick ? "2048x9 samples, 3 epochs, 9-5-5-1 MLP, per-sample ADAM"
              : "19152x9 samples, 10 epochs, 9-5-5-1 MLP, per-sample ADAM "
                "(one fig5 candidate training)");
  workloads["mlp_forward"] =
      std::string("9-5-5-1 MLP, single point vs 252-row batch (14x18 grid)");
  workloads["grid_recommend"] = std::string(
      "EnergyModel (5-member ensemble) argmin over the 14x18 CF/UCF grid");
  workloads["store_lookup"] = std::string(
      o.quick ? "MeasurementStore hit-path lookups on the 16-shard index, "
                "256 keys x 8 rounds per thread; tN = pool threads"
              : "MeasurementStore hit-path lookups on the 16-shard index, "
                "2048 keys x 64 rounds per thread; tN = pool threads");
  workloads["store_open"] = std::string(
      o.quick ? "MeasurementStore::open (ro, jobs = hardware threads, as a "
                "default Session) of a synthetic 1 MB store: 4 "
                "acquisition-sweep lines of 1000 samples"
              : "MeasurementStore::open (ro, jobs = hardware threads, as a "
                "default Session) of a synthetic 4 MB store: 14 "
                "acquisition-sweep lines of 1000 samples");
  workloads["perf_model_evaluate"] = std::string(
      "PerfModel::evaluate of Lulesh region 0, 24 threads, 2400/1700 MHz");
  workloads["counter_model_evaluate"] = std::string(
      "CounterModel::evaluate (every preset) of the same region execution");
  workloads["node_run_kernel"] = std::string(
      "NodeSimulator::run_kernel of the same region, default jitter");
  workloads["traced_app_run"] = std::string(
      "ScorepRuntime::execute of Lulesh (2 iterations, every region "
      "instrumented) into an OTF2 archive, jitter 0");
  workloads["trace_post_process"] = std::string(
      "Otf2PostProcessor phase split of a traced Lulesh run (10 "
      "iterations, 2 PMU events), jitter 0");
  workloads["rrl_production_run"] = std::string(
      "readex::run_with_rrl of Lulesh (5 iterations), significant regions "
      "tuned to 24 threads at 2400/1700 MHz, jitter 0");
  report["workloads"] = std::move(workloads);
  report["estimator"] =
      std::string("min over " + std::to_string(o.repeats) + " repeats");
  report["results"] = std::move(results);

  const std::string text = report.dump(2) + "\n";
  if (o.out.empty()) {
    std::cout << text;
  } else {
    std::ofstream f(o.out);
    if (!f) {
      std::cerr << "error: cannot write " << o.out << '\n';
      return 2;
    }
    f << text;
    std::cout << "perf report written to " << o.out << '\n';
  }
  return 0;
}
