// campaign_cold / campaign_warm: one operation is a first-time user's full
// run -- open a Session at jobs = nproc on an rw store, acquire the
// training split, fit the 10-epoch ensemble, and run the DTA campaign over
// all 19 suite benchmarks. campaign_cold starts every iteration on an empty
// store directory; campaign_warm reuses one that set-up filled, so every
// iteration replays from the store with zero misses and zero writes.
//
// The iteration is run_session() with the campaign: it trains through
// Session::train_model(), except in traced iterations, which split that
// method's body so acquisition and training get spans of their own.
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <utility>

#include "api/session.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload/suite.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ecotune::api::Session;
using ecotune::api::SessionConfig;

constexpr const char* kStoreFile = "measurements.jsonl";

struct Iteration {
  double ms = 0;
  std::uint64_t digest = 0;  ///< FNV-1a of the campaign report dump
  long app_runs = 0;
  ecotune::store::StoreStats store;
  double load_mb = 0;    ///< store file parsed at open
  double append_mb = 0;  ///< store file growth during the iteration
  double train_samples = 0;  ///< dataset rows x epochs of the fit
  std::optional<ecotune::model::EnergyModel> model;
};

Iteration run_iteration(const std::string& store_dir,
                        const std::vector<std::string>& names, Tracer& tracer,
                        long index) {
  const std::string store_file = store_dir + "/" + kStoreFile;
  Iteration it;
  it.load_mb = file_mb(store_file);
  const auto t0 = std::chrono::steady_clock::now();
  SessionRun run;
  {
    const Scope op(tracer, "campaign.iteration", -1, index);
    run = run_session(store_dir, "", names, index == 0, tracer, op.id(), index);
  }
  it.ms = ms_since(t0);

  it.digest = ecotune::fnv1a(run.report.to_json().dump(-1));
  for (const auto& r : run.report.reports) it.app_runs += r.result.app_runs;
  it.store = run.store;
  it.train_samples = run.train_samples;
  it.model = std::move(run.model);
  it.append_mb = file_mb(store_file) - it.load_mb;
  return it;
}

}  // namespace

SessionRun run_session(const std::string& store_dir, const std::string& scope,
                       const std::vector<std::string>& campaign,
                       bool keep_model, Tracer& tracer, int parent,
                       long request) {
  SessionRun run;
  std::unique_ptr<Session> session;
  {
    const Scope s(tracer, "api.session_open", parent, request);
    session = std::make_unique<Session>(
        SessionConfig{}.jobs(0).cache(store_dir, "rw").scope(scope));
  }
  if (!tracer.enabled()) {
    session->train_model();
  } else {
    // train_model()'s body, until the library records its own spans. A
    // traced iteration's report must equal the untraced ones', so a split
    // that trained another model fails the output check.
    ecotune::model::EnergyDataset dataset;
    {
      const Scope s(tracer, "model.acquire", parent, request);
      dataset = session->acquire_dataset();
    }
    const Scope s(tracer, "nn.train", parent, request);
    ecotune::model::EnergyModelConfig model_cfg;
    model_cfg.jobs = session->jobs();
    ecotune::model::EnergyModel model(model_cfg);
    model.train(dataset, session->config().epochs());
    run.train_samples = static_cast<double>(dataset.samples.size()) *
                        session->config().epochs();
    session->use_model(std::move(model));
    dataset = {};
  }
  if (!campaign.empty()) {
    const Scope s(tracer, "core.campaign", parent, request);
    run.report = session->run_dta_campaign(campaign);
  }
  run.store = session->store().stats();
  if (keep_model) run.model = session->model();
  const Scope s(tracer, "api.session_close", parent, request);
  session.reset();
  return run;
}

Outcome run_campaign(const Options& opts, bool warm) {
  Outcome out;
  Tracer off(false);
  Tracer traced(opts.trace);
  long index = 0;
  // The seed picks the campaign's benchmark order, which keys every row's
  // noise stream; the model and the training data stay the canonical ones.
  std::vector<std::string> names = ecotune::workload::BenchmarkSuite::names();
  ecotune::Rng rng = ecotune::Rng(opts.seed).fork("campaign");
  for (std::size_t i = names.size() - 1; i > 0; --i)
    std::swap(names[i], names[static_cast<std::size_t>(
                            rng.uniform_int(0, static_cast<std::int64_t>(i)))]);

  // Set-up. Five rounds, each an iteration on a fresh store: for
  // campaign_cold they are the warm-up iterations; for campaign_warm they
  // are the passes that fill the store (the last one is kept).
  constexpr int kSetupRounds = 5;
  std::vector<double> setup_ms;
  std::uint64_t reference = 0;
  std::optional<ecotune::model::EnergyModel> model;
  const std::string warm_dir = opts.work_dir + "/warm-store";
  for (int r = 0; r < kSetupRounds; ++r) {
    const std::string dir = opts.work_dir + "/setup-" + std::to_string(r);
    Iteration it = run_iteration(dir, names, off, index++);
    setup_ms.push_back(it.ms);
    if (r == 0) {
      reference = it.digest;
      model = std::move(it.model);
    } else if (it.digest != reference) {
      out.problem("set-up round " + std::to_string(r) +
                  " report differs from the first");
    }
    if (warm && r == kSetupRounds - 1) {
      fs::rename(dir, warm_dir);
    } else {
      fs::remove_all(dir);
    }
  }
  if (warm) {
    // Two untimed warm iterations: the first store opens of a process run
    // slow, like the first cold iterations.
    for (int r = 0; r < 2; ++r) (void)run_iteration(warm_dir, names, off, index++);
  }

  // Timed window. In the traced run, even iterations carry spans and odd
  // ones do not, so the untraced median of the same window gives the
  // tracing overhead.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<Iteration> traced_its;
  // Peak RSS of each iteration: the process peak would be the maximum over
  // about a hundred iterations, which allocator timing makes noisy.
  std::vector<double> peak_mb;
  const auto window = std::chrono::steady_clock::now();
  long timed = 0;
  while (ms_since(window) < opts.seconds * 1000.0) {
    const bool with_spans = opts.trace && timed % 2 == 0;
    const std::string dir =
        warm ? warm_dir : opts.work_dir + "/cold-" + std::to_string(timed);
    reset_peak_rss();
    Iteration it = run_iteration(dir, names, with_spans ? traced : off,
                                 index++);
    peak_mb.push_back(peak_rss_mb());
    if (!warm) fs::remove_all(dir);
    ++timed;
    ++out.attempted;

    bool ok = true;
    if (it.digest != reference) {
      out.problem("iteration " + std::to_string(timed) +
                  " campaign report differs from the first iteration");
      ok = false;
    }
    if (warm && (it.store.misses != 0 || it.store.writes != 0)) {
      out.problem("warm iteration " + std::to_string(timed) + " had " +
                  std::to_string(it.store.misses) + " misses and " +
                  std::to_string(it.store.writes) + " writes");
      ok = false;
    }
    if (!ok) ++out.failed;
    (with_spans ? traced_ms : untraced_ms).push_back(it.ms);
    if (with_spans) traced_its.push_back(std::move(it));
  }
  const double window_s = ms_since(window) / 1000.0;
  if (warm) fs::remove_all(warm_dir);

  std::cerr << opts.workload << ": " << timed << " iterations in " << window_s
            << " s, fail_ratio " << static_cast<double>(out.failed) / timed
            << '\n';

  if (!opts.trace) {
    out.metric("setup_s", median(setup_ms) / 1000.0);
    out.metric("op_p50_ms", median(untraced_ms));
    out.metric("op_tail_ms", tail_ms(untraced_ms, kCampaignTailPct));
    out.metric("ops_per_s", static_cast<double>(timed) / window_s);
    out.metric("peak_rss_mb", median(peak_mb));
    out.metric("model_test_mape_pct", test_mape_pct(*model));
    return out;
  }

  // Per-layer metrics of the traced iterations.
  if (traced_its.empty() || untraced_ms.empty()) {
    out.problem("window too short for traced and untraced iterations");
    return out;
  }
  auto per_op = [&](auto field) {
    std::vector<double> v;
    for (const Iteration& it : traced_its) v.push_back(field(it));
    return mean(v);
  };
  const double open_ms = median(traced.self_ms("api.session_open"));
  const double acquire_ms = median(traced.self_ms("model.acquire"));
  const double train_ms = median(traced.self_ms("nn.train"));
  const double campaign_ms = median(traced.self_ms("core.campaign"));
  const double close_ms = median(traced.self_ms("api.session_close"));
  out.metric("api.session_close_ms", close_ms);
  const double traced_p50 = median(traced_ms);
  // Per training sample seen (rows x epochs); the figure covers all five
  // ensemble members.
  const double samples =
      per_op([](const Iteration& it) { return it.train_samples; });

  out.metric("api.session_open_ms", open_ms);
  out.metric("store.load_mb", per_op([](const Iteration& it) { return it.load_mb; }));
  out.metric("model.acquire_ms", acquire_ms);
  out.metric("nn.train_ms", train_ms);
  out.metric("nn.train_ns_per_sample", train_ms * 1e6 / samples);
  out.metric("core.campaign_ms", campaign_ms);
  out.metric("core.app_runs", per_op([](const Iteration& it) {
               return static_cast<double>(it.app_runs);
             }));
  const double hits = per_op([](const Iteration& it) {
    return static_cast<double>(it.store.hits);
  });
  const double misses = per_op([](const Iteration& it) {
    return static_cast<double>(it.store.misses);
  });
  out.metric("store.hits", hits);
  out.metric("store.misses", misses);
  out.metric("store.writes", per_op([](const Iteration& it) {
               return static_cast<double>(it.store.writes);
             }));
  out.metric("store.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  out.metric("store.append_mb",
             per_op([](const Iteration& it) { return it.append_mb; }));
  out.metric("trace.overhead_ms", traced_p50 - median(untraced_ms));
  const double coverage =
      100.0 * (open_ms + acquire_ms + train_ms + campaign_ms + close_ms) /
      traced_p50;
  out.metric("trace.span_coverage_pct", coverage);
  if (coverage < 90.0)
    out.problem("layer spans cover only " + std::to_string(coverage) +
                "% of the traced op_p50_ms (need >= 90%)");
  traced.write(opts.work_dir + "/../trace-" + opts.workload + "-" +
               std::to_string(opts.seed) + ".json");
  return out;
}

}  // namespace perfbench
