#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "common/json.hpp"
#include "model/energy_model.hpp"
#include "trace.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// What an untraced run reports, on every workload (BENCHMARK.json
/// "end_to_end").
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},      {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MB"},     {"model_test_mape_pct", "%"},
};

/// What a traced run reports (BENCHMARK.json "per_layer"). A layer a
/// workload never enters reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"api.session_open_ms", "ms"},
    {"api.session_close_ms", "ms"},
    {"store.load_mb", "MB"},
    {"model.acquire_ms", "ms"},
    {"nn.train_ms", "ms"},
    {"nn.train_ns_per_sample", "ns"},
    {"core.campaign_ms", "ms"},
    {"core.app_runs", "count"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.writes", "count"},
    {"store.hit_ratio", "ratio"},
    {"store.append_mb", "MB"},
    {"serve.codec_us", "us"},
    {"serve.response_bytes", "bytes"},
    {"serve.handle_ms.predict", "ms"},
    {"serve.handle_ms.dta_hit", "ms"},
    {"serve.handle_ms.dta_fresh", "ms"},
    {"serve.handle_ms.tune_fresh", "ms"},
    {"serve.handle_ms.static_hit", "ms"},
    {"serve.wait_ms", "ms"},
    {"model.recommend_us", "us"},
    {"trace.overhead_ms", "ms"},
    {"trace.span_coverage_pct", "%"},
};

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for stores, the socket and the trace file; the
  /// workload removes what it created there.
  std::string work_dir;
};

/// What one workload run reports: the operation counts and the metrics of
/// the mode it ran in (end-to-end untraced, per-layer traced).
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> problems;  ///< every failed check, for stderr
  ecotune::Json metrics = ecotune::Json::object();

  /// Sets a metric of kEndToEnd or kPerLayer (its unit comes from there).
  void metric(const std::string& name, double value);
  /// Records a failed output check; the run is then not correct.
  void problem(std::string what);
  [[nodiscard]] bool correct() const { return problems.empty(); }
};

/// Milliseconds since `t0` on the steady clock.
[[nodiscard]] inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident set of this process since it started or since the last
/// reset_peak_rss(), in MB (10^6 bytes): VmHWM of /proc/self/status.
[[nodiscard]] double peak_rss_mb();
/// Returns freed heap memory to the system (malloc_trim) and resets the
/// peak to the current resident set (clear_refs "5"), so a peak read
/// afterwards measures what the following work holds at once, not what
/// the allocator kept from earlier work.
void reset_peak_rss();

/// Size of `path` in MB (10^6 bytes); 0 when it does not exist.
[[nodiscard]] double file_mb(const std::string& path);

/// stats::mape of `model` on the five evaluation_names() benchmarks,
/// acquired on a store-less session.
[[nodiscard]] double test_mape_pct(const ecotune::model::EnergyModel& model);

/// What one run_session() produced.
struct SessionRun {
  ecotune::api::CampaignReport report;  ///< empty without a campaign
  ecotune::store::StoreStats store;     ///< the Session's counters at close
  double train_samples = 0;  ///< dataset rows x epochs of the fit (traced)
  std::optional<ecotune::model::EnergyModel> model;  ///< when keep_model
};

/// A first-time user's Session: open it on an rw store in `store_dir`
/// (jobs = nproc, store scope `scope`), train the model, run the DTA
/// campaign over `campaign` unless it is empty, close. With `tracer` off
/// the model comes from Session::train_model(). With it on, that method's
/// body (acquire_dataset(), EnergyModel::train(), use_model(), the dataset
/// freed on return) runs split so each layer gets its span under `parent`:
/// api.session_open, model.acquire, nn.train, core.campaign,
/// api.session_close.
[[nodiscard]] SessionRun run_session(const std::string& store_dir,
                                     const std::string& scope,
                                     const std::vector<std::string>& campaign,
                                     bool keep_model, Tracer& tracer,
                                     int parent, long request);

/// Campaign workloads: campaign_cold (warm = false) and campaign_warm.
[[nodiscard]] Outcome run_campaign(const Options& opts, bool warm);
/// The closed-loop serve request mix.
[[nodiscard]] Outcome run_serve_mix(const Options& opts);
/// The benchmark's own self-tests; returns the number of failures.
[[nodiscard]] int run_selftests();

}  // namespace perfbench
