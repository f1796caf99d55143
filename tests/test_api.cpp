// Tests of the public api::Session facade and its report sinks:
//  - Session::run_dta must equal the legacy hand-wired driver stack
//    bit-for-bit (same seeds, same wiring, compared via the exact JSON
//    round-trip of core::DtaResult),
//  - the TextReportSink must render the legacy driver format byte for byte,
//  - the JsonReportSink document must round-trip through common/json,
//  - run_dta_campaign must be jobs-invariant, warm-restart from the
//    measurement store with zero misses, and equal keyed run_dta calls,
//  - keyed calls from many threads must equal the same calls made serially,
//  - the shared strict CLI integer parsing must reject garbage.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "api/report.hpp"
#include "api/session.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/logging.hpp"
#include "common/simd.hpp"
#include "common/table.hpp"
#include "core/dvfs_ufs_plugin.hpp"
#include "model/dataset.hpp"

namespace ecotune {
namespace {

// Reduced-cost but end-to-end configuration: single thread count, coarse
// frequency grid, one epoch. Everything below shares it so the legacy and
// Session stacks are compared on identical protocols.
model::AcquisitionOptions tiny_acquisition() {
  model::AcquisitionOptions opts;
  opts.thread_counts = {24};
  opts.cf_stride = 4;
  opts.ucf_stride = 4;
  opts.phase_iterations = 1;
  return opts;
}

api::SessionConfig tiny_config() {
  return api::SessionConfig{}.seed(77).epochs(1).acquisition(
      tiny_acquisition());
}

// Trained once per test binary; sessions that do not need to exercise the
// training path inject it via use_model().
const model::EnergyModel& tiny_model() {
  static const model::EnergyModel trained = [] {
    api::Session session(tiny_config().jobs(0));
    return session.train_model();
  }();
  return trained;
}

const api::DtaReport& shared_report() {
  static const api::DtaReport report = [] {
    api::Session session(tiny_config().jobs(2));
    session.use_model(tiny_model());
    return session.run_dta(
        workload::BenchmarkSuite::by_name("Lulesh").with_iterations(3));
  }();
  return report;
}

TEST(ApiSession, RunDtaMatchesHandWiredLegacyStack) {
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(3);

  // The legacy wiring every driver used to repeat by hand (the pre-Session
  // ecotune_dta main, at this test's reduced protocol).
  hwsim::NodeSimulator train_node(hwsim::haswell_ep_spec(), 0, Rng(77));
  train_node.set_jitter(0.002);
  model::AcquisitionOptions acq_opts = tiny_acquisition();
  acq_opts.jobs = 1;
  model::DataAcquisition acq(train_node, acq_opts);
  model::EnergyModelConfig model_cfg;
  model_cfg.jobs = 1;
  model::EnergyModel energy_model(model_cfg);
  energy_model.train(acq.acquire(workload::BenchmarkSuite::training_set()),
                     1);

  // A keyed Session call runs on a clone of the tuning node whose noise
  // stream is forked by the key.
  const std::string key = "legacy";
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), 1, Rng(78));
  node.set_jitter(0.002);
  hwsim::NodeSimulator keyed = node.clone(key);
  core::DvfsUfsPlugin plugin(energy_model, {});
  const core::DtaResult legacy = plugin.run_dta(app, keyed);

  // The Session path, same seeds and protocol.
  api::Session session(tiny_config().jobs(1));
  const api::DtaReport report = session.run_dta(app, key);

  // Exact JSON round trip preserves doubles bitwise, so dump equality is
  // bit-for-bit equality of the full analysis result.
  EXPECT_EQ(report.result.to_json().dump(-1), legacy.to_json().dump(-1));
}

TEST(ApiSession, RunDtaOnCallerNodeMatchesHandWiredSequence) {
  const auto lulesh =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(2);
  const auto mcb = workload::BenchmarkSuite::by_name("Mcb").with_iterations(2);

  api::Session session(tiny_config().jobs(2));
  session.use_model(tiny_model());
  hwsim::NodeSimulator node = session.tuning_node().clone();
  const api::DtaReport first = session.run_dta(lulesh, node);
  const api::DtaReport second = session.run_dta(mcb, node);

  // The hand-wired sequence: one plugin run after the other on one node.
  hwsim::NodeSimulator legacy_node(hwsim::haswell_ep_spec(), 1, Rng(78));
  legacy_node.set_jitter(0.002);
  core::DvfsUfsPlugin::Options po;
  po.engine.jobs = 1;
  const core::DtaResult legacy_first =
      core::DvfsUfsPlugin(tiny_model(), po).run_dta(lulesh, legacy_node);
  const core::DtaResult legacy_second =
      core::DvfsUfsPlugin(tiny_model(), po).run_dta(mcb, legacy_node);

  EXPECT_EQ(first.result.to_json().dump(-1), legacy_first.to_json().dump(-1));
  EXPECT_EQ(second.result.to_json().dump(-1),
            legacy_second.to_json().dump(-1));
  EXPECT_EQ(node.state_fingerprint(), legacy_node.state_fingerprint());
  // The sequence lives in the caller's node; the session's never moves.
  EXPECT_EQ(session.tuning_node().now().value(), 0.0);
}

TEST(ApiReport, TextSinkRendersLegacyDriverFormat) {
  const api::DtaReport& report = shared_report();
  const core::DtaResult& result = report.result;

  // The pre-Session ecotune_dta print block, verbatim.
  std::ostringstream expected;
  expected << "training energy model (1 epochs)...\n";
  expected << "\n=== " << report.benchmark << " (" << report.objective
           << " objective) ===\n"
           << "significant regions : "
           << result.dyn_report.significant.size() << '\n'
           << "phase threads       : " << result.phase_threads << '\n'
           << "model recommendation: "
           << to_string(result.recommendation.cf) << '|'
           << to_string(result.recommendation.ucf) << '\n'
           << "phase best          : " << to_string(result.phase_best)
           << '\n'
           << "experiments         : " << result.thread_scenarios << " + "
           << result.analysis_runs << " + " << result.frequency_scenarios
           << " in " << result.app_runs << " app runs ("
           << TextTable::num(result.tuning_time.value(), 1)
           << " s simulated)\n\n";
  TextTable table("per-region configuration");
  table.header({"region", "threads", "CF", "UCF", "scenario"});
  for (const auto& sig : result.dyn_report.significant) {
    const auto it = result.region_best.find(sig.name);
    if (it == result.region_best.end()) continue;
    table.row({sig.name, std::to_string(it->second.threads),
               to_string(it->second.core), to_string(it->second.uncore),
               std::to_string(result.tuning_model.scenario_id(sig.name))});
  }
  table.print(expected);
  expected << "\ntuning model written to out.json\n";

  std::ostringstream got;
  api::TextReportSink sink(got);
  sink.training_started(1);
  sink.dta(report);
  sink.model_written(report.benchmark, "out.json");
  sink.close();
  EXPECT_EQ(got.str(), expected.str());
}

TEST(ApiReport, JsonSinkRoundTripsThroughCommonJson) {
  const api::DtaReport& report = shared_report();

  std::ostringstream os;
  api::JsonReportSink sink(os);
  sink.training_started(1);  // must not leak progress chatter into JSON
  sink.dta(report);
  sink.model_written(report.benchmark, "out.json");
  sink.close();

  const Json doc = Json::parse(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), "ecotune.dta.v1");
  const auto& reports = doc.at("reports").as_array();
  ASSERT_EQ(reports.size(), 1u);
  const Json& r = reports.front();
  EXPECT_EQ(r.at("benchmark").as_string(), report.benchmark);
  EXPECT_EQ(r.at("objective").as_string(), report.objective);
  EXPECT_EQ(r.at("tuning_model_path").as_string(), "out.json");
  EXPECT_EQ(r.at("phase_threads").as_int(), report.result.phase_threads);
  EXPECT_EQ(r.at("significant_regions").as_array().size(),
            report.result.dyn_report.significant.size());

  // The embedded DtaResult rehydrates bit-exactly.
  const core::DtaResult rehydrated =
      core::DtaResult::from_json(r.at("result"));
  EXPECT_EQ(rehydrated.to_json().dump(-1),
            report.result.to_json().dump(-1));

  // Compact (indent < 0) form parses too.
  std::ostringstream compact;
  api::JsonReportSink compact_sink(compact, -1);
  compact_sink.dta(report);
  compact_sink.close();
  EXPECT_EQ(Json::parse(compact.str()).at("reports").as_array().size(), 1u);
}

TEST(ApiSession, CampaignIsJobsInvariant) {
  const std::vector<workload::Benchmark> apps = {
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(2),
      workload::BenchmarkSuite::by_name("Mcb").with_iterations(2),
      workload::BenchmarkSuite::by_name("miniMD").with_iterations(2)};

  api::Session serial(tiny_config().jobs(1));
  serial.use_model(tiny_model());
  api::Session parallel(tiny_config().jobs(3));
  parallel.use_model(tiny_model());

  const api::CampaignReport c1 = serial.run_dta_campaign(apps);
  const api::CampaignReport c3 = parallel.run_dta_campaign(apps);
  ASSERT_EQ(c1.reports.size(), apps.size());
  EXPECT_EQ(c1.to_json().dump(-1), c3.to_json().dump(-1));
}

TEST(ApiSession, CampaignWarmRestartsFromStoreWithZeroMisses) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "ecotune_api_campaign")
          .string();
  std::filesystem::remove_all(dir);
  const std::vector<workload::Benchmark> apps = {
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(2),
      workload::BenchmarkSuite::by_name("Mcb").with_iterations(2)};

  api::Session cold(tiny_config().jobs(2).cache(dir).scope("test_api"));
  cold.use_model(tiny_model());
  const api::CampaignReport cold_report = cold.run_dta_campaign(apps);

  api::Session warm(tiny_config().jobs(3).cache(dir).scope("test_api"));
  warm.use_model(tiny_model());
  const api::CampaignReport warm_report = warm.run_dta_campaign(apps);

  EXPECT_EQ(warm_report.to_json().dump(-1), cold_report.to_json().dump(-1));
  // Every whole-DTA row must answer from the store.
  EXPECT_EQ(warm.store().stats().misses, 0);
  EXPECT_EQ(warm.store().stats().hits,
            static_cast<long>(apps.size()));
  std::filesystem::remove_all(dir);
}

TEST(ApiSession, CampaignRowsAreKeyedRunDtaCalls) {
  const std::vector<workload::Benchmark> apps = {
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(2),
      workload::BenchmarkSuite::by_name("Mcb").with_iterations(2)};

  api::Session campaign_session(tiny_config().jobs(2));
  campaign_session.use_model(tiny_model());
  const api::CampaignReport campaign =
      campaign_session.run_dta_campaign(apps);

  api::Session session(tiny_config().jobs(2));
  session.use_model(tiny_model());
  ASSERT_EQ(campaign.reports.size(), apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const api::DtaReport row = session.run_dta(
        apps[i], "campaign-0-" + std::to_string(i) + "-" + apps[i].name());
    EXPECT_EQ(campaign.reports[i].to_json().dump(-1), row.to_json().dump(-1))
        << apps[i].name();
  }
}

TEST(ApiSession, ConcurrentKeyedCallsMatchSerial) {
  baseline::StaticTunerOptions coarse;
  coarse.thread_counts = {24};
  coarse.cf_stride = 4;
  coarse.ucf_stride = 4;
  const api::SessionConfig config =
      tiny_config().jobs(2).repeats(1).static_search(coarse);
  // Lulesh twice: the same call on one benchmark under two keys.
  const std::vector<std::string> names = {"Lulesh", "Mcb", "miniMD",
                                          "Lulesh"};

  // Call c: the benchmark names[c % 4] under the key "k<c>", through
  // run_dta, tune or evaluate_savings by c % 3. Every answer is dumped.
  const auto call = [&](api::Session& session, std::size_t c) {
    const auto app =
        workload::BenchmarkSuite::by_name(names[c % names.size()])
            .with_iterations(2);
    const std::string key = "k" + std::to_string(c);
    switch (c % 3) {
      case 0:
        return session.run_dta(app, key).to_json().dump(-1);
      case 1:
        return session.tune("static", app, "", key).to_json().dump(-1);
      default:
        return session.evaluate_savings(app, key).to_json().dump(-1);
    }
  };
  constexpr std::size_t kThreads = 8;

  api::Session serial(config);
  std::vector<std::string> expected;
  for (std::size_t c = 0; c < kThreads; ++c)
    expected.push_back(call(serial, c));

  // The concurrent session starts untrained: the first call trains, the
  // others wait for the model.
  api::Session shared(config);
  std::vector<std::string> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kThreads; ++c)
    threads.emplace_back([&, c] { got[c] = call(shared, c); });
  for (auto& t : threads) t.join();

  for (std::size_t c = 0; c < kThreads; ++c)
    EXPECT_EQ(got[c], expected[c]) << "call " << c;
}

// --- The trained model as a store entry -----------------------------------

/// Fresh store directory for one model-entry test.
std::string model_store_dir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("ecotune_api_model_" + name + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::vector<std::string> store_lines(const std::string& dir) {
  std::ifstream is(dir + "/measurements.jsonl");
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// Store lines holding a trained model.
std::vector<std::string> model_lines(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& line : store_lines(dir)) {
    const Json entry = Json::parse(line);
    if (entry.at("task").as_string().ends_with("/model")) out.push_back(line);
  }
  return out;
}

TEST(ApiModelEntry, ColdSessionWritesOneEntryAndWarmSessionLoadsIt) {
  const std::string dir = model_store_dir("warm");
  std::string cold_dump;
  {
    api::Session cold(tiny_config().jobs(1).cache(dir).scope("m"));
    cold_dump = cold.train_model().to_json().dump(-1);
  }
  // The stored model is the model a storeless session trains.
  EXPECT_EQ(cold_dump, tiny_model().to_json().dump(-1));
  ASSERT_EQ(model_lines(dir).size(), 1u);
  EXPECT_NE(model_lines(dir).front().find("\"m/model\""), std::string::npos);

  // Another jobs value shares the entry: zero misses, zero writes.
  api::Session warm(tiny_config().jobs(4).cache(dir).scope("m"));
  const model::EnergyModel& loaded = warm.train_model();
  EXPECT_EQ(loaded.to_json().dump(-1), cold_dump);
  EXPECT_EQ(warm.store().stats().misses, 0);
  EXPECT_EQ(warm.store().stats().writes, 0);
  EXPECT_EQ(model_lines(dir).size(), 1u);
  std::filesystem::remove_all(dir);
}

// Row fingerprints fold the model in through its cached digest. The digest
// must mix exactly what hashing the canonical text did (label, FNV-1a of
// the text, its size), or every stored DTA and savings row would miss.
TEST(ApiModelEntry, CachedDigestFoldsInLikeTheCanonicalText) {
  const model::EnergyModel& trained = tiny_model();
  const std::string text = trained.to_json().dump(-1);
  EXPECT_EQ(trained.canonical_digest().hash, fnv1a(text));
  EXPECT_EQ(trained.canonical_digest().size, text.size());

  // The composition Fingerprint::add(label, text) has always used, spelled
  // out byte by byte.
  std::uint64_t expected = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      expected ^= (v >> (8 * i)) & 0xFF;
      expected *= 0x100000001b3ULL;
    }
  };
  mix(fnv1a("model"));
  mix(fnv1a(text));
  mix(text.size());
  EXPECT_EQ(Fingerprint().add("model", trained.canonical_digest()).digest(),
            expected);
  EXPECT_EQ(Fingerprint().add("model", text).digest(), expected);

  // A model loaded from its JSON carries the same digest.
  const auto loaded = model::EnergyModel::from_json(Json::parse(text));
  EXPECT_EQ(loaded.canonical_digest().hash, trained.canonical_digest().hash);
  EXPECT_EQ(loaded.canonical_digest().size, trained.canonical_digest().size);
}

TEST(ApiModelEntry, StoreWrittenAtAvx2AnswersAScalarSession) {
  // Every dispatch level trains the same bits, so the model entry carries
  // no level: a scalar session loads what an AVX2 session stored.
  if (!simd::supported(simd::Level::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2+FMA";
  }
  const std::string dir = model_store_dir("levels");
  std::string avx2_json;
  {
    const simd::ScopedLevel avx2(simd::Level::kAvx2);
    api::Session cold(tiny_config().jobs(2).cache(dir).scope("m"));
    avx2_json = cold.train_model().to_json().dump(-1);
  }
  const simd::ScopedLevel scalar(simd::Level::kScalar);
  {
    api::Session warm(tiny_config().jobs(2).cache(dir).scope("m"));
    EXPECT_EQ(warm.train_model().to_json().dump(-1), avx2_json);
    EXPECT_EQ(warm.store().stats().misses, 0);
    EXPECT_EQ(warm.store().stats().writes, 0);
  }
  // And what it loads is what the scalar level trains from scratch.
  api::Session fresh(tiny_config().jobs(2));
  EXPECT_EQ(fresh.train_model().to_json().dump(-1), avx2_json);
  std::filesystem::remove_all(dir);
}

TEST(ApiModelEntry, ChangedTrainingInputsMissAndRetrain) {
  const std::string dir = model_store_dir("inputs");
  std::string base_dump;
  {
    api::Session cold(tiny_config().jobs(2).cache(dir).scope("m"));
    base_dump = cold.train_model().to_json().dump(-1);
  }
  model::AcquisitionOptions coarser = tiny_acquisition();
  coarser.cf_stride = 5;
  const std::vector<api::SessionConfig> variants = {
      tiny_config().epochs(2),                 // epoch count
      tiny_config().acquisition(coarser),      // acquisition options
      tiny_config().seed(78),                  // training-node seed
  };
  std::size_t expected_lines = 1;
  for (const auto& variant : variants) {
    api::SessionConfig config = variant;
    api::Session session(config.jobs(2).cache(dir).scope("m"));
    const std::string dump = session.train_model().to_json().dump(-1);
    EXPECT_NE(dump, base_dump);
    EXPECT_GT(session.store().stats().misses, 0);
    EXPECT_EQ(model_lines(dir).size(), ++expected_lines)
        << "a changed input must retrain and insert a new model";
  }
  std::filesystem::remove_all(dir);
}

TEST(ApiModelEntry, ReadOnlyStoreAnswersButNeverWrites) {
  const std::string dir = model_store_dir("ro");
  {
    // ro on an empty directory trains as if the store were off.
    std::filesystem::create_directories(dir);
    api::Session ro(tiny_config().jobs(2).cache(dir, "ro").scope("m"));
    EXPECT_EQ(ro.train_model().to_json().dump(-1),
              tiny_model().to_json().dump(-1));
    EXPECT_EQ(ro.store().stats().writes, 0);
    EXPECT_FALSE(std::filesystem::exists(dir + "/measurements.jsonl"));
  }
  {
    api::Session rw(tiny_config().jobs(2).cache(dir).scope("m"));
    (void)rw.train_model();
  }
  const std::vector<std::string> before = store_lines(dir);
  api::Session ro(tiny_config().jobs(2).cache(dir, "ro").scope("m"));
  EXPECT_EQ(ro.train_model().to_json().dump(-1),
            tiny_model().to_json().dump(-1));
  EXPECT_EQ(ro.store().stats().misses, 0);
  EXPECT_EQ(ro.store().stats().writes, 0);
  EXPECT_EQ(store_lines(dir), before);
  std::filesystem::remove_all(dir);
}

TEST(ApiModelEntry, StoreOffTrainsWithoutAnEntry) {
  api::Session off(tiny_config().jobs(2));
  EXPECT_FALSE(off.store().enabled());
  EXPECT_EQ(off.train_model().to_json().dump(-1),
            tiny_model().to_json().dump(-1));
  EXPECT_EQ(off.store().stats().hits + off.store().stats().misses, 0);
}

TEST(ApiModelEntry, UndecodableModelLogsAnErrorAndRetrains) {
  const std::string dir = model_store_dir("corrupt");
  {
    api::Session cold(tiny_config().jobs(2).cache(dir).scope("m"));
    (void)cold.train_model();
  }
  // Keep the line valid JSON with its task and fingerprint, so it loads,
  // hits, and only fails to decode as a model.
  std::vector<std::string> lines = store_lines(dir);
  bool corrupted = false;
  for (auto& line : lines) {
    const auto at = line.find("\"networks\"");
    if (line.find("\"m/model\"") == std::string::npos ||
        at == std::string::npos)
      continue;
    line.replace(at, 10, "\"netwerks\"");
    corrupted = true;
  }
  ASSERT_TRUE(corrupted);
  {
    std::ofstream os(dir + "/measurements.jsonl", std::ios::trunc);
    for (const auto& line : lines) os << line << '\n';
  }

  std::ostringstream log_sink;
  log::set_sink(&log_sink);
  std::string retrained;
  long writes = 0;
  {
    api::Session session(tiny_config().jobs(2).cache(dir).scope("m"));
    retrained = session.train_model().to_json().dump(-1);
    writes = session.store().stats().writes;
  }
  log::set_sink(nullptr);
  EXPECT_NE(log_sink.str().find("undecodable cache payload for 'model'"),
            std::string::npos)
      << log_sink.str();
  EXPECT_EQ(retrained, tiny_model().to_json().dump(-1));
  EXPECT_EQ(writes, 1) << "the retrained model is inserted again";

  // The re-inserted entry wins on the next open.
  api::Session warm(tiny_config().jobs(2).cache(dir).scope("m"));
  EXPECT_EQ(warm.train_model().to_json().dump(-1), retrained);
  EXPECT_EQ(warm.store().stats().misses, 0);
  std::filesystem::remove_all(dir);
}

// --- The acquisition summary ---------------------------------------------

/// Store lines whose task contains `needle`.
std::vector<std::string> lines_with(const std::string& dir,
                                    const std::string& needle) {
  std::vector<std::string> out;
  for (const auto& line : store_lines(dir)) {
    if (Json::parse(line).at("task").as_string().find(needle) !=
        std::string::npos)
      out.push_back(line);
  }
  return out;
}

/// Rewrites the store file: `edit` returns false to drop a line.
void rewrite_store(const std::string& dir,
                   const std::function<bool(std::string&)>& edit) {
  std::vector<std::string> kept;
  for (std::string line : store_lines(dir))
    if (edit(line)) kept.push_back(std::move(line));
  std::ofstream os(dir + "/measurements.jsonl", std::ios::trunc);
  for (const auto& line : kept) os << line << '\n';
}

/// What train_model() leaves behind: the model and the training node.
struct Trained {
  Fingerprint::Text model;
  double clock = 0;
  std::uint64_t node_state = 0;
  store::StoreStats stats;
};

Trained train_on(const std::string& dir) {
  api::SessionConfig config = tiny_config().jobs(2);
  if (!dir.empty()) config.cache(dir).scope("m");
  api::Session session(config);
  Trained out;
  out.model = session.train_model().canonical_digest();
  out.clock = session.training_node().now().value();
  out.node_state = session.training_node().state_fingerprint();
  out.stats = session.store().stats();
  return out;
}

void expect_same_training(const Trained& got, const Trained& want) {
  EXPECT_EQ(got.model.hash, want.model.hash);
  EXPECT_EQ(got.model.size, want.model.size);
  EXPECT_EQ(got.clock, want.clock);
  EXPECT_EQ(got.node_state, want.node_state);
}

TEST(AcquisitionSummary, WarmTrainModelDecodesNoSweep) {
  const std::string dir = model_store_dir("summary_warm");
  const Trained storeless = train_on("");
  const Trained cold = train_on(dir);
  expect_same_training(cold, storeless);
  ASSERT_EQ(lines_with(dir, "/acquire/summary-").size(), 1u);

  // Two lookups, the summary and the model: no sweep entry is read.
  const Trained warm = train_on(dir);
  expect_same_training(warm, cold);
  EXPECT_EQ(warm.stats.hits, 2);
  EXPECT_EQ(warm.stats.misses, 0);
  EXPECT_EQ(warm.stats.writes, 0);
  std::filesystem::remove_all(dir);
}

TEST(AcquisitionSummary, StoreWithoutASummaryKeepsItsModel) {
  const std::string dir = model_store_dir("summary_parent");
  const Trained cold = train_on(dir);
  // A store written before the summary existed has every sweep and the
  // model, but no summary line.
  rewrite_store(dir, [](std::string& line) {
    return line.find("/acquire/summary-") == std::string::npos;
  });
  const long sweeps = static_cast<long>(lines_with(dir, "/acquire/").size());

  const Trained first = train_on(dir);
  expect_same_training(first, cold);
  EXPECT_EQ(first.stats.hits, sweeps + 1) << "every sweep and the model";
  EXPECT_EQ(first.stats.misses, 1) << "the summary";
  EXPECT_EQ(first.stats.writes, 1) << "the summary";

  const Trained second = train_on(dir);
  expect_same_training(second, cold);
  EXPECT_EQ(second.stats.misses, 0);
  EXPECT_EQ(second.stats.writes, 0);
  std::filesystem::remove_all(dir);
}

TEST(AcquisitionSummary, UndecodableSummaryFallsBackToTheSweeps) {
  const std::string dir = model_store_dir("summary_corrupt");
  const Trained cold = train_on(dir);
  rewrite_store(dir, [](std::string& line) {
    Json entry = Json::parse(line);
    if (entry.at("task").as_string().find("/acquire/summary-") !=
        std::string::npos) {
      entry["payload"] = Json::object();
      line = entry.dump(-1);
    }
    return true;
  });

  std::ostringstream log_sink;
  log::set_sink(&log_sink);
  const Trained warm = train_on(dir);
  log::set_sink(nullptr);
  expect_same_training(warm, cold);
  EXPECT_EQ(warm.stats.misses, 0);
  EXPECT_EQ(warm.stats.writes, 1) << "the summary is written again";
  EXPECT_NE(
      log_sink.str().find("undecodable cache payload for 'acquire/summary-0'"),
      std::string::npos)
      << log_sink.str();

  const Trained again = train_on(dir);
  expect_same_training(again, cold);
  EXPECT_EQ(again.stats.hits, 2);
  EXPECT_EQ(again.stats.writes, 0);
  std::filesystem::remove_all(dir);
}

TEST(AcquisitionSummary, AcquireDatasetStillDecodesEverySample) {
  const std::string dir = model_store_dir("summary_dataset");
  (void)train_on(dir);
  api::Session storeless(tiny_config().jobs(2));
  const model::EnergyDataset expected = storeless.acquire_dataset();
  api::Session warm(tiny_config().jobs(2).cache(dir).scope("m"));
  const model::EnergyDataset got = warm.acquire_dataset();
  EXPECT_EQ(warm.store().stats().misses, 0);
  ASSERT_EQ(got.samples.size(), expected.samples.size());
  EXPECT_EQ(got.training_digest(), expected.training_digest());
  EXPECT_EQ(warm.training_node().now(), storeless.training_node().now());
  std::filesystem::remove_all(dir);
}

// --- The tune row ----------------------------------------------------------

/// A session whose static search is cheap: one thread count.
api::SessionConfig cheap_tune_config() {
  baseline::StaticTunerOptions search;
  search.thread_counts = {24};
  search.cf_stride = 4;
  search.ucf_stride = 4;
  return tiny_config().jobs(2).static_search(search);
}

TEST(ApiTuneRow, RepeatedKeyedTuneIsOneStoreHit) {
  const std::string dir = model_store_dir("tune_hit");
  const auto app = workload::BenchmarkSuite::by_name("Mcb").with_iterations(3);
  api::Session session(cheap_tune_config().cache(dir).scope("t"));
  session.use_model(tiny_model());
  for (const std::string name : {"static", "qlearn", "ondemand", "dta"}) {
    SCOPED_TRACE(name);
    const std::string first =
        session.tune(name, app, "", "k-" + name).to_json().dump(-1);
    const store::StoreStats before = session.store().stats();
    const std::string second =
        session.tune(name, app, "", "k-" + name).to_json().dump(-1);
    const store::StoreStats after = session.store().stats();
    EXPECT_EQ(second, first);
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.writes, before.writes);
    EXPECT_EQ(lines_with(dir, "/tune/k-" + name).size(), 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(ApiTuneRow, AnotherModelMissesTheDtaRowButNotTheStaticRow) {
  const std::string dir = model_store_dir("tune_model");
  const auto app = workload::BenchmarkSuite::by_name("Mcb").with_iterations(3);
  {
    api::Session session(cheap_tune_config().cache(dir).scope("t"));
    session.use_model(tiny_model());
    (void)session.tune("dta", app, "", "k-dta");
    (void)session.tune("static", app, "", "k-static");
  }
  model::EnergyModel other = [] {
    api::Session trainer(tiny_config().epochs(2).jobs(2));
    return trainer.train_model();
  }();
  ASSERT_NE(other.to_json().dump(-1), tiny_model().to_json().dump(-1));

  api::Session session(cheap_tune_config().cache(dir).scope("t"));
  session.use_model(std::move(other));
  store::StoreStats before = session.store().stats();
  (void)session.tune("static", app, "", "k-static");
  store::StoreStats after = session.store().stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);

  before = after;
  (void)session.tune("dta", app, "", "k-dta");
  after = session.store().stats();
  EXPECT_GT(after.misses, before.misses);
  EXPECT_EQ(lines_with(dir, "/tune/k-dta").size(), 2u)
      << "the dta row is computed again and appended";
  std::filesystem::remove_all(dir);
}

TEST(ApiTuneRow, ModelFreeTuneLeavesTheSessionUntrained) {
  const std::string dir = model_store_dir("tune_untrained");
  const auto app = workload::BenchmarkSuite::by_name("Mcb").with_iterations(3);
  for (const bool with_store : {false, true}) {
    SCOPED_TRACE(with_store);
    api::SessionConfig config = cheap_tune_config();
    if (with_store) config.cache(dir);
    api::Session session(config);
    (void)session.tune("static", app);
    (void)session.tune("ondemand", app, "", "k");
    EXPECT_THROW(static_cast<void>(session.model()), Error);  // no model
  }
  std::filesystem::remove_all(dir);
}

TEST(ApiSession, SeedConventionAndOverrides) {
  EXPECT_EQ(api::SessionConfig{}.seed(10).train_seed(), 10u);
  EXPECT_EQ(api::SessionConfig{}.seed(10).tuning_seed(), 11u);
  EXPECT_EQ(api::SessionConfig{}.seed(10).tuning_seed(99).tuning_seed(),
            99u);
  EXPECT_EQ(api::SessionConfig{}.tuning_node_id(), 1);
}

TEST(ApiSession, ModelLifecycle) {
  api::Session session(tiny_config());
  EXPECT_THROW(static_cast<void>(session.model()), Error);
  EXPECT_THROW(session.use_model(model::EnergyModel{}), Error);

  session.use_model(tiny_model());
  ASSERT_NO_THROW(static_cast<void>(session.model()));
  // train_model() is idempotent once a model exists: same object back.
  const model::EnergyModel* first = &session.train_model();
  EXPECT_EQ(first, &session.train_model());
  EXPECT_EQ(first, &session.model());
}

TEST(ApiSession, StoreConfigurationErrorsThrow) {
  EXPECT_THROW(api::Session(api::SessionConfig{}.cache("/tmp/x", "sideways")),
               Error);
  // A non-off mode without a cache dir is the same CLI error the drivers
  // always rejected.
  EXPECT_THROW(api::Session(api::SessionConfig{}.cache("", "rw")), Error);
}

TEST(ApiSession, UnknownBenchmarkThrows) {
  api::Session session(tiny_config());
  session.use_model(tiny_model());
  EXPECT_THROW(session.run_dta("NoSuchBenchmark"), Error);
  EXPECT_THROW(session.run_dta_campaign(std::vector<std::string>{"Nope"}),
               Error);
}

TEST(Cli, StrictIntRejectsGarbageAndRespectsBounds) {
  int value = 5;
  EXPECT_FALSE(cli::parse_strict_int("--epochs", "ten", 1, value));
  EXPECT_FALSE(cli::parse_strict_int("--epochs", "3x", 1, value));
  EXPECT_FALSE(cli::parse_strict_int("--epochs", "", 1, value));
  EXPECT_FALSE(cli::parse_strict_int("--epochs", "0", 1, value));
  EXPECT_FALSE(cli::parse_strict_int("--jobs", "-2", 0, value));
  EXPECT_EQ(value, 5);  // failures never touch the output

  EXPECT_TRUE(cli::parse_strict_int("--epochs", "12", 1, value));
  EXPECT_EQ(value, 12);

  std::uint64_t seed = 0;
  EXPECT_TRUE(cli::parse_strict_int("--seed", "18446744073709551615",
                                    std::uint64_t{0}, seed));
  EXPECT_EQ(seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(cli::parse_strict_int("--seed", "18446744073709551616",
                                     std::uint64_t{0}, seed));
}

}  // namespace
}  // namespace ecotune
