// perfbench: the repository benchmark. Runs one named workload for a fixed
// wall-clock window and prints, as its last stdout line, one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). Normally started through perfbench/run.py,
// which builds this binary first.
//
//   perfbench --workload campaign_cold --seed 3 --seconds 10 --trace 0
//             --work-dir .perfbench/run-1
//   perfbench --selftest
#include <malloc.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "bench.hpp"
#include "common/logging.hpp"
#include "common/simd.hpp"
#include "stats/metrics.hpp"
#include "workload/suite.hpp"

namespace perfbench {

void Outcome::metric(const std::string& name, double value) {
  using Specs = std::span<const MetricSpec>;
  for (const Specs specs : {Specs(kEndToEnd), Specs(kPerLayer)}) {
    for (const MetricSpec& spec : specs) {
      if (name != spec.name) continue;
      ecotune::Json m = ecotune::Json::object();
      m["value"] = value;
      m["unit"] = spec.unit;
      metrics[name] = std::move(m);
      return;
    }
  }
  throw std::logic_error("undeclared metric " + name);
}

void Outcome::problem(std::string what) {
  if (problems.size() < 50) std::cerr << "check failed: " << what << '\n';
  problems.push_back(std::move(what));
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // the field is in kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double file_mb(const std::string& path) {
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / 1e6;
}

double test_mape_pct(const ecotune::model::EnergyModel& model) {
  ecotune::api::Session session;
  const auto ds =
      session.acquire_dataset(ecotune::workload::BenchmarkSuite::evaluation_set());
  const std::vector<double> truth = ds.labels();
  const std::vector<double> predicted = model.predict_all(ds);
  return ecotune::stats::mape(truth, predicted);
}

}  // namespace perfbench

namespace {

using perfbench::Options;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The "cpu" line of /proc/stat: ticks per state (user ... steal ...).
std::vector<long long> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::vector<long long> ticks;
  long long t = 0;
  for (int i = 0; i < 8 && in >> t; ++i) ticks.push_back(t);
  return ticks;
}

/// Share of all CPU ticks between two cpu_ticks() readings that the
/// hypervisor gave to other guests (steal). A busy host slows every timing
/// metric; the record keeps it so such runs can be told apart.
double steal_pct(const std::vector<long long>& a,
                 const std::vector<long long>& b) {
  if (a.size() < 8 || b.size() < 8) return 0;
  long long total = 0;
  for (std::size_t i = 0; i < 8; ++i) total += b[i] - a[i];
  return total > 0 ? 100.0 * static_cast<double>(b[7] - a[7]) /
                         static_cast<double>(total)
                   : 0.0;
}

/// Steal above this share of CPU time makes a run's timings suspect.
constexpr double kStealWarnPct = 2.0;

/// Host and build identity stamped on every result record.
ecotune::Json host_fingerprint(const Options& opts, const std::string& commit) {
  ecotune::Json h = ecotune::Json::object();
  h["cpu_model"] = cpu_model();
  h["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  h["simd"] = ecotune::simd::to_string(ecotune::simd::active_level());
  h["compiler"] = std::string(__VERSION__);
  h["build_type"] = PERFBENCH_BUILD_TYPE;
  h["seed"] = static_cast<std::int64_t>(opts.seed);
  h["commit"] = commit;
  return h;
}

void usage() {
  std::cerr << "usage: perfbench --workload campaign_cold|campaign_warm|"
               "serve_mix --seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "                 [--commit ID] [--record FILE]\n"
               "       perfbench --selftest\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string commit = "unknown";
  std::string record_path;
  bool selftest = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opts.workload = value();
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opts.trace = std::stoi(value()) != 0;
      } else if (arg == "--work-dir") {
        opts.work_dir = value();
      } else if (arg == "--commit") {
        commit = value();
      } else if (arg == "--record") {
        record_path = value();
      } else if (arg == "--selftest") {
        selftest = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    usage();
    return 2;
  }
  if (selftest) return perfbench::run_selftests() == 0 ? 0 : 1;
  if (opts.work_dir.empty() || opts.seconds <= 0) {
    usage();
    return 2;
  }

  // Library progress lines would interleave with the report; keep errors.
  ecotune::log::set_level(ecotune::log::Level::kError);
  std::filesystem::create_directories(opts.work_dir);

  const auto ticks_before = cpu_ticks();
  perfbench::Outcome outcome;
  try {
    if (opts.workload == "campaign_cold") {
      outcome = perfbench::run_campaign(opts, false);
    } else if (opts.workload == "campaign_warm") {
      outcome = perfbench::run_campaign(opts, true);
    } else if (opts.workload == "serve_mix") {
      outcome = perfbench::run_serve_mix(opts);
    } else {
      std::cerr << "error: unknown workload '" << opts.workload << "'\n";
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: workload " << opts.workload << " failed: " << e.what()
              << '\n';
    return 1;
  }
  if (outcome.attempted < 1) {
    std::cerr << "error: no operation completed in the window\n";
    return 1;
  }
  // Every metric of the mode, and nothing else: layers a workload never
  // enters read 0 in the traced run.
  ecotune::Json metrics = ecotune::Json::object();
  using Specs = std::span<const perfbench::MetricSpec>;
  for (const auto& spec : opts.trace ? Specs(perfbench::kPerLayer)
                                     : Specs(perfbench::kEndToEnd)) {
    if (outcome.metrics.contains(spec.name)) {
      metrics[spec.name] = outcome.metrics.at(spec.name);
    } else if (opts.trace) {
      ecotune::Json zero = ecotune::Json::object();
      zero["value"] = 0.0;
      zero["unit"] = spec.unit;
      metrics[spec.name] = std::move(zero);
    } else {
      std::cerr << "error: workload did not measure " << spec.name << '\n';
      return 1;
    }
  }
  outcome.metrics = std::move(metrics);

  ecotune::Json result = ecotune::Json::object();
  result["correct"] = outcome.correct();
  result["attempted"] = static_cast<std::int64_t>(outcome.attempted);
  result["failed"] = static_cast<std::int64_t>(outcome.failed);
  result["metrics"] = outcome.metrics;

  ecotune::Json record = ecotune::Json::object();
  record["workload"] = opts.workload;
  record["trace"] = opts.trace;
  record["seconds"] = opts.seconds;
  record["host"] = host_fingerprint(opts, commit);
  const double steal = steal_pct(ticks_before, cpu_ticks());
  record["host"]["steal_pct"] = steal;
  if (steal > kStealWarnPct)
    std::cerr << "warning: hypervisor steal took " << steal
              << "% of the CPU time during this run; its timings are not "
                 "comparable with a quiet host's, so discard and re-run it\n";
  record["result"] = result;
  if (!record_path.empty()) {
    std::ofstream out(record_path, std::ios::app);
    out << record.dump(-1) << '\n';
  }

  for (const auto& [name, m] : outcome.metrics.as_object())
    std::cout << "  " << name << " = " << m.at("value").dump(-1) << ' '
              << m.at("unit").as_string() << '\n';
  std::cout << "record: " << record.dump(-1) << '\n';
  std::cout << result.dump(-1) << std::endl;
  return 0;
}
