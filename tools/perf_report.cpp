// Machine-readable performance report of the model/NN hot path: the
// components every table/figure driver funnels through (MLP training,
// scalar vs batched inference, the full-grid frequency recommendation),
// plus the measurement store's hit-path lookups and its open/parse time.
// Emits JSON so the perf trajectory can be tracked across PRs
// (BENCH_*.json at the repo root).
//
//   perf_report [--out FILE] [--repeats N] [--quick]
//               [--extra key=value]...
//   perf_report --compare OLD.json NEW.json
//   perf_report --trajectory [DIR]
//
// Workloads mirror the reproduction pipeline: the training benchmark runs
// at fig5 scale (19152 x 9 standardized samples, 10 consecutive epochs on
// one network, running ADAM timestep), inference sweeps the 14 x 18
// Haswell-EP frequency grid. Each metric reports the minimum over
// --repeats runs (the standard robust microbenchmark estimator).
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

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/numbers.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "hwsim/cpu_spec.hpp"
#include "model/energy_model.hpp"
#include "model/features.hpp"
#include "nn/mlp.hpp"
#include "stats/linalg.hpp"
#include "store/measurement_store.hpp"

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

double bench_train_epoch(const Options& o) {
  const std::size_t n = o.quick ? 2048 : 19152;
  const int epochs = o.quick ? 3 : 10;
  stats::Matrix x;
  std::vector<double> y;
  bench::synthetic_training_data(n, x, y);
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
  const stats::Matrix x = bench::synthetic_grid_batch();
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
  const model::EnergyModel m = bench::untrained_ensemble_model(5);
  const hwsim::CpuSpec spec = hwsim::haswell_ep_spec();
  const std::map<std::string, double> rates = bench::synthetic_counter_rates();
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
  const model::EnergyModel m = bench::untrained_ensemble_model(5);
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

// --- measurement-store contention (PR 10, bench/store_contention) -------
//
// Concurrent hit-path lookups against the sharded in-memory index versus
// the same index forced onto one shard (the pre-sharding single-mutex
// design). This is the load the tuning service's worker pool puts on the
// shared store. The standalone bench/store_contention driver prints the
// full table; the six cells tracked here pin the trajectory.

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

double bench_store_lookup(const Options& o, std::size_t shards,
                          int threads) {
  const auto keys = store_bench_keys(o.quick ? 256 : 2048);
  const std::size_t rounds = o.quick ? 8 : 64;
  // ro mode keeps the disk appender (and its mutex) idle: the cell
  // measures pure index contention on the hit path, which never misses
  // and never writes.
  store::MeasurementStore store;
  store.open(store_bench_dir(o), store::StoreMode::kReadOnly, "bench",
             shards);
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

double bench_store_s1_t1(const Options& o) { return bench_store_lookup(o, 1, 1); }
double bench_store_s1_t4(const Options& o) { return bench_store_lookup(o, 1, 4); }
double bench_store_s1_t16(const Options& o) { return bench_store_lookup(o, 1, 16); }
double bench_store_s16_t1(const Options& o) { return bench_store_lookup(o, 16, 1); }
double bench_store_s16_t4(const Options& o) { return bench_store_lookup(o, 16, 4); }
double bench_store_s16_t16(const Options& o) { return bench_store_lookup(o, 16, 16); }

// --- measurement-store open --------------------------------------------
//
// Opening the store validates every line of measurements.jsonl, which is what
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

/// Milliseconds of MeasurementStore::open per MB of store file, opened
/// with the job count a default Session opens its store with.
double bench_store_open(const Options& o) {
  namespace fs = std::filesystem;
  const std::string& dir = store_open_dir(o);
  const double mb =
      static_cast<double>(fs::file_size(fs::path(dir) / "measurements.jsonl")) /
      1e6;
  const auto t0 = Clock::now();
  store::MeasurementStore store;
  store.open(dir, store::StoreMode::kReadOnly, "bench", 0, resolve_jobs(0));
  const double ms = seconds_since(t0) * 1e3;
  if (store.size() != (o.quick ? 4u : 14u)) {
    std::cerr << "error: synthetic store reopened with " << store.size()
              << " entries\n";
    std::exit(1);
  }
  return ms / mb;
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

  Json results = Json::object();
  results["mlp_train_epoch_ns_per_sample"] =
      min_of(o.repeats, bench_train_epoch, o);
  results["mlp_forward_scalar_ns_per_point"] =
      min_of(o.repeats, bench_forward_scalar, o);
  results["mlp_forward_batch_ns_per_point"] =
      min_of(o.repeats, bench_forward_batch, o);
  results["grid_recommend_us_per_call"] =
      min_of(o.repeats, bench_grid_recommend, o);
  results["energy_model_predict_ns_per_call"] =
      min_of(o.repeats, bench_model_predict, o);
  results["store_lookup_shard1_t1_ns_per_op"] =
      min_of(o.repeats, bench_store_s1_t1, o);
  results["store_lookup_shard1_t4_ns_per_op"] =
      min_of(o.repeats, bench_store_s1_t4, o);
  results["store_lookup_shard1_t16_ns_per_op"] =
      min_of(o.repeats, bench_store_s1_t16, o);
  results["store_lookup_shard16_t1_ns_per_op"] =
      min_of(o.repeats, bench_store_s16_t1, o);
  results["store_lookup_shard16_t4_ns_per_op"] =
      min_of(o.repeats, bench_store_s16_t4, o);
  results["store_lookup_shard16_t16_ns_per_op"] =
      min_of(o.repeats, bench_store_s16_t16, o);
  results["store_open_ms_per_mb"] = min_of(o.repeats, bench_store_open, o);
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
      o.quick ? "MeasurementStore hit-path lookups, 256 keys x 8 rounds "
                "per thread; shardN = index shard count, tN = pool threads"
              : "MeasurementStore hit-path lookups, 2048 keys x 64 rounds "
                "per thread; shardN = index shard count, tN = pool threads "
                "(shard1 = the pre-PR-10 single-mutex index)");
  workloads["store_open"] = std::string(
      o.quick ? "MeasurementStore::open (ro, jobs = hardware threads, as a "
                "default Session) of a synthetic 1 MB store: 4 "
                "acquisition-sweep lines of 1000 samples"
              : "MeasurementStore::open (ro, jobs = hardware threads, as a "
                "default Session) of a synthetic 4 MB store: 14 "
                "acquisition-sweep lines of 1000 samples");
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
