#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "api/session.hpp"
#include "baseline/exhaustive_tuner.hpp"
#include "baseline/static_tuner.hpp"
#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/logging.hpp"
#include "common/numbers.hpp"
#include "core/evaluation.hpp"
#include "model/dataset.hpp"
#include "ptf/experiments_engine.hpp"
#include "store/measurement_store.hpp"
#include "store/serdes.hpp"
#include "tuners/governor_tuner.hpp"
#include "tuners/qlearning_tuner.hpp"
#include "workload/suite.hpp"

namespace ecotune {
namespace {

namespace fs = std::filesystem;

/// Fresh temp directory per test, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("ecotune_store_" + tag + "_" +
                std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::string file() const {
    return (fs::path(path_) / "measurements.jsonl").string();
  }

 private:
  std::string path_;
};

hwsim::NodeSimulator test_node(int node_id = 0, std::uint64_t seed = 42) {
  hwsim::NodeSimulator node(hwsim::haswell_ep_spec(), node_id, Rng(seed));
  node.set_jitter(0.002);
  return node;
}

/// Every field of every sample, as exact text (Json writes doubles in their
/// shortest round-trip form), for whole-dataset equality checks.
std::string samples_text(const model::EnergyDataset& ds) {
  Json all = Json::array();
  for (const auto& s : ds.samples) {
    Json j = Json::object();
    j["benchmark"] = s.benchmark;
    j["threads"] = s.threads;
    j["cf"] = s.cf.as_mhz();
    j["ucf"] = s.ucf.as_mhz();
    Json features = Json::array();
    for (double v : s.features) features.push_back(v);
    j["features"] = std::move(features);
    j["energy"] = s.normalized_energy;
    j["power"] = s.normalized_power;
    j["time"] = s.normalized_time;
    all.push_back(std::move(j));
  }
  return all.dump(-1);
}

// --- Fingerprint sensitivity ---------------------------------------------

TEST(Fingerprint, ChangingAnyComponentChangesTheDigest) {
  const SystemConfig config{24, CoreFreq::mhz(2500), UncoreFreq::mhz(3000)};
  auto digest = [&](const SystemConfig& c, std::string_view region,
                    std::uint64_t seed, std::uint64_t node_digest) {
    Fingerprint fp;
    fp.add("config", c).add("region", region).add("seed", seed);
    fp.add_digest("node", node_digest);
    return fp.digest();
  };
  const std::uint64_t base = digest(config, "region_a", 7, 99);

  SystemConfig threads = config;
  threads.threads = 20;
  SystemConfig cf = config;
  cf.core = CoreFreq::mhz(2400);
  SystemConfig ucf = config;
  ucf.uncore = UncoreFreq::mhz(2900);

  EXPECT_NE(digest(threads, "region_a", 7, 99), base);
  EXPECT_NE(digest(cf, "region_a", 7, 99), base);
  EXPECT_NE(digest(ucf, "region_a", 7, 99), base);
  EXPECT_NE(digest(config, "region_b", 7, 99), base);
  EXPECT_NE(digest(config, "region_a", 8, 99), base);
  EXPECT_NE(digest(config, "region_a", 7, 100), base);
  // And stability: same inputs, same digest.
  EXPECT_EQ(digest(config, "region_a", 7, 99), base);
}

TEST(Fingerprint, NodeStateFingerprintTracksStateAndSpec) {
  const auto a = test_node(0, 42).state_fingerprint();
  EXPECT_EQ(test_node(0, 42).state_fingerprint(), a);

  EXPECT_NE(test_node(1, 42).state_fingerprint(), a);  // node id
  EXPECT_NE(test_node(0, 43).state_fingerprint(), a);  // cluster seed

  auto jitter = test_node(0, 42);
  jitter.set_jitter(0.01);
  EXPECT_NE(jitter.state_fingerprint(), a);

  auto advanced = test_node(0, 42);
  advanced.idle(Seconds(1.0));
  EXPECT_NE(advanced.state_fingerprint(), a);  // simulated clock

  auto freqs = test_node(0, 42);
  freqs.set_all_core_freqs(CoreFreq::mhz(1800));
  EXPECT_NE(freqs.state_fingerprint(), a);

  auto spec = hwsim::haswell_ep_spec();
  spec.default_core = CoreFreq::mhz(2400);
  hwsim::NodeSimulator other_spec(spec, 0, Rng(42));
  other_spec.set_jitter(0.002);
  EXPECT_NE(other_spec.state_fingerprint(), a);
}

TEST(Fingerprint, BenchmarkDigestTracksWorkloadDefinition) {
  const auto& lulesh = workload::BenchmarkSuite::by_name("Lulesh");
  EXPECT_EQ(lulesh.fingerprint_digest(),
            workload::BenchmarkSuite::by_name("Lulesh").fingerprint_digest());
  EXPECT_NE(lulesh.fingerprint_digest(),
            workload::BenchmarkSuite::by_name("Mcb").fingerprint_digest());
  EXPECT_NE(lulesh.fingerprint_digest(),
            lulesh.with_iterations(3).fingerprint_digest());
}

// --- Store basics ---------------------------------------------------------

TEST(MeasurementStore, RoundTripsAndPersistsAcrossSessions) {
  TempDir dir("roundtrip");
  const store::MeasurementKey key{"task/a", 0x1234};
  Json payload = Json::object();
  payload["value"] = 0.1 + 0.2;  // not exactly representable as text naively

  {
    store::MeasurementStore s;
    s.open(dir.path(), store::StoreMode::kReadWrite);
    EXPECT_FALSE(s.lookup(key).has_value());
    s.insert(key, payload);
    const auto hit = s.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(Json::parse(*hit).at("value").as_number(), 0.1 + 0.2);
    EXPECT_EQ(s.stats().hits, 1);
    EXPECT_EQ(s.stats().misses, 1);
    EXPECT_EQ(s.stats().writes, 1);
  }
  // A second session loads the appended file.
  store::MeasurementStore warm;
  warm.open(dir.path(), store::StoreMode::kReadOnly);
  EXPECT_EQ(warm.size(), 1u);
  const auto hit = warm.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(Json::parse(*hit).at("value").as_number(), 0.1 + 0.2);
}

TEST(MeasurementStore, FingerprintMismatchInvalidatesTheStaleEntry) {
  TempDir dir("invalidate");
  store::MeasurementStore s;
  s.open(dir.path(), store::StoreMode::kReadWrite);
  s.insert({"task/a", 1}, Json(1.0));
  // Same task, different context: must not answer, must drop the entry.
  EXPECT_FALSE(s.lookup({"task/a", 2}).has_value());
  EXPECT_EQ(s.stats().invalidated, 1);
  EXPECT_EQ(s.size(), 0u);
  // Even the original fingerprint now misses (entry is gone)...
  EXPECT_FALSE(s.lookup({"task/a", 1}).has_value());
  // ...until re-inserted under the new context.
  s.insert({"task/a", 2}, Json(2.0));
  ASSERT_TRUE(s.lookup({"task/a", 2}).has_value());
}

TEST(MeasurementStore, ReadOnlyModeNeverWrites) {
  TempDir dir("readonly");
  {
    store::MeasurementStore rw;
    rw.open(dir.path(), store::StoreMode::kReadWrite);
    rw.insert({"task/a", 1}, Json(1.0));
  }
  const auto bytes_before = fs::file_size(dir.file());
  const auto mtime_before = fs::last_write_time(dir.file());

  store::MeasurementStore ro;
  ro.open(dir.path(), store::StoreMode::kReadOnly);
  ASSERT_TRUE(ro.lookup({"task/a", 1}).has_value());
  ro.insert({"task/b", 2}, Json(2.0));  // dropped
  EXPECT_FALSE(ro.lookup({"task/b", 2}).has_value());
  EXPECT_EQ(ro.stats().writes, 0);
  EXPECT_EQ(fs::file_size(dir.file()), bytes_before);
  EXPECT_EQ(fs::last_write_time(dir.file()), mtime_before);
}

TEST(MeasurementStore, ReadOnlyRequiresNothingOnDisk) {
  TempDir dir("ro_empty");
  // ro against a missing directory: valid, everything misses.
  store::MeasurementStore ro;
  ro.open(dir.path(), store::StoreMode::kReadOnly);
  EXPECT_FALSE(ro.lookup({"task/a", 1}).has_value());
  EXPECT_FALSE(fs::exists(dir.path()));
}

TEST(MeasurementStore, OffModeIsInert) {
  TempDir dir("off");
  store::MeasurementStore off;
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.lookup({"task/a", 1}).has_value());
  off.insert({"task/a", 1}, Json(1.0));
  EXPECT_FALSE(off.lookup({"task/a", 1}).has_value());
  EXPECT_EQ(off.stats().hits, 0);
  EXPECT_EQ(off.stats().misses, 0);
  EXPECT_FALSE(fs::exists(dir.path()));
}

TEST(MeasurementStore, RejectsCorruptEntriesLoudly) {
  TempDir dir("corrupt");
  fs::create_directories(dir.path());
  {
    store::MeasurementStore rw;
    rw.open(dir.path(), store::StoreMode::kReadWrite);
    rw.insert({"task/good", 7}, Json(3.5));
  }
  {
    std::ofstream os(dir.file(), std::ios::app);
    os << "this is not json\n"
       << "{\"task\":\"task/nofp\",\"payload\":1}\n"
       << "{\"task\":\"task/badfp\",\"fp\":\"zz\",\"payload\":1}\n";
  }
  std::ostringstream log_sink;
  log::set_sink(&log_sink);
  store::MeasurementStore warm;
  warm.open(dir.path(), store::StoreMode::kReadOnly);
  log::set_sink(nullptr);

  EXPECT_EQ(warm.stats().rejected, 3);
  EXPECT_EQ(warm.size(), 1u);
  ASSERT_TRUE(warm.lookup({"task/good", 7}).has_value());
  EXPECT_FALSE(warm.lookup({"task/nofp", 1}).has_value());
  EXPECT_NE(log_sink.str().find("rejecting corrupt cache entry"),
            std::string::npos);
}

TEST(MeasurementStore, ParsesModesStrictly) {
  EXPECT_EQ(store::parse_store_mode("rw"), store::StoreMode::kReadWrite);
  EXPECT_EQ(store::parse_store_mode("ro"), store::StoreMode::kReadOnly);
  EXPECT_EQ(store::parse_store_mode("off"), store::StoreMode::kOff);
  EXPECT_THROW((void)store::parse_store_mode("RW"), Error);
  EXPECT_THROW((void)store::parse_store_mode(""), Error);
}

TEST(MeasurementStore, ResolvesCliModeDefaults) {
  EXPECT_EQ(store::resolve_store_mode("", ""), store::StoreMode::kOff);
  EXPECT_EQ(store::resolve_store_mode("", "/tmp/d"),
            store::StoreMode::kReadWrite);
  EXPECT_EQ(store::resolve_store_mode("ro", "/tmp/d"),
            store::StoreMode::kReadOnly);
  EXPECT_EQ(store::resolve_store_mode("off", ""), store::StoreMode::kOff);
  // A non-off mode without a cache dir is a user error.
  EXPECT_THROW((void)store::resolve_store_mode("rw", ""), Error);
  EXPECT_THROW((void)store::resolve_store_mode("sideways", "/tmp/d"), Error);
}

TEST(MeasurementStore, ScopesIsolateDriversSharingOneDirectory) {
  TempDir dir("scopes");
  const store::MeasurementKey key{"task/a", 1};
  {
    store::MeasurementStore a;
    a.open(dir.path(), store::StoreMode::kReadWrite, "driver_a");
    a.insert(key, Json(1.0));
    // Same task id under another scope: no hit, and crucially no
    // invalidation ping-pong between the two namespaces.
    store::MeasurementStore b;
    b.open(dir.path(), store::StoreMode::kReadWrite, "driver_b");
    EXPECT_FALSE(b.lookup(key).has_value());
    b.insert({key.task, 2}, Json(2.0));
    EXPECT_EQ(b.stats().invalidated, 0);
  }
  store::MeasurementStore a2;
  a2.open(dir.path(), store::StoreMode::kReadOnly, "driver_a");
  const auto hit = a2.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(Json::parse(*hit).as_number(), 1.0);
  EXPECT_EQ(a2.stats().invalidated, 0);
}

// A line the store appends is exactly the line Json writes for the
// {task, fp, payload} object, so stores stay byte-compatible both ways.
TEST(MeasurementStore, AppendedLineIsByteIdenticalToTheJsonBuiltLine) {
  TempDir dir("golden");
  Json payload = Json::object();
  payload["samples"] = Json(Json::Array{Json(0.1 + 0.2), Json(1e300),
                                        Json(-2.5e-8), Json(24)});
  payload["nested"]["name"] = "quote \" backslash \\ tab \t";
  payload["empty"] = Json::object();
  payload["flag"] = true;
  payload["none"] = nullptr;
  const std::string task = "engine/Lulesh \"v2\"/run-0";
  const std::uint64_t fp = 0x00f0e1d2c3b4a596ULL;
  {
    store::MeasurementStore s;
    s.open(dir.path(), store::StoreMode::kReadWrite, "scope");
    s.insert({task, fp}, payload);
    // The index answers with the payload's bytes inside that line.
    const auto hit = s.lookup({task, fp});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, payload.dump(-1));
  }
  Json line = Json::object();
  line["task"] = "scope/" + task;
  line["fp"] = Fingerprint::to_hex(fp);
  line["payload"] = payload;
  std::ifstream is(dir.file(), std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(text, line.dump(-1) + '\n');
}

// A view handed out by lookup() stays readable while other threads
// invalidate and replace the same task, for entries loaded at open and
// entries inserted since.
TEST(MeasurementStore, ViewSurvivesConcurrentInvalidationAndReplacement) {
  TempDir dir("views");
  const auto payload_for = [](int version) {
    Json payload = Json::object();
    payload["version"] = version;
    payload["values"] = Json(Json::Array(64, Json(0.5 + version)));
    return payload.dump(-1);
  };
  {
    store::MeasurementStore writer;
    writer.open(dir.path(), store::StoreMode::kReadWrite);
    writer.insert({"task/loaded", 1}, Json::parse(payload_for(1)));
  }
  store::MeasurementStore s;
  s.open(dir.path(), store::StoreMode::kReadWrite);
  s.insert({"task/inserted", 1}, Json::parse(payload_for(1)));
  const auto loaded = s.lookup({"task/loaded", 1});
  const auto inserted = s.lookup({"task/inserted", 1});
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(inserted.has_value());
  const std::string expected = payload_for(1);

  constexpr int kRounds = 200;
  std::thread churn([&] {
    for (int round = 0; round < kRounds; ++round) {
      const std::uint64_t stale = 2 + static_cast<std::uint64_t>(round);
      for (const char* task : {"task/loaded", "task/inserted"}) {
        // The stale fingerprint invalidates; the insert replaces.
        EXPECT_FALSE(s.lookup({task, stale}).has_value());
        s.insert({task, stale + 1000}, Json::parse(payload_for(round + 2)));
      }
    }
  });
  for (int round = 0; round < kRounds; ++round) {
    EXPECT_EQ(*loaded, expected);
    EXPECT_EQ(*inserted, expected);
    // Whatever the current entry is, its view decodes.
    for (const char* task : {"task/loaded", "task/inserted"}) {
      for (std::uint64_t fp = 1002; fp < 1005; ++fp) {
        if (const auto now = s.lookup({task, fp})) {
          EXPECT_TRUE(Json::parse(*now).contains("version"));
        }
      }
    }
  }
  churn.join();
  EXPECT_EQ(*loaded, expected);
  EXPECT_EQ(*inserted, expected);
}

// A writer killed mid-append leaves a torn last line. Opening the store rw
// cuts it off before appending, so the next entry is not glued onto it,
// and one warm rerun reaches zero misses.
TEST(MeasurementStore, TornTailIsRepairedSoOneWarmRerunHasZeroMisses) {
  TempDir dir("torn");
  model::AcquisitionOptions opts;
  opts.thread_counts = {24};
  opts.cf_stride = 4;
  opts.ucf_stride = 4;
  opts.phase_iterations = 2;
  opts.jobs = 1;
  const std::vector<workload::Benchmark> benchmarks{
      workload::BenchmarkSuite::by_name("Lulesh"),
      workload::BenchmarkSuite::by_name("Mcb")};
  const auto acquire = [&](store::MeasurementStore& store) {
    auto node = test_node();
    opts.store = &store;
    model::DataAcquisition acquisition(node, opts);
    return samples_text(acquisition.acquire(benchmarks));
  };

  std::string cold;
  {
    store::MeasurementStore s;
    s.open(dir.path(), store::StoreMode::kReadWrite);
    cold = acquire(s);
    ASSERT_FALSE(cold.empty());
    ASSERT_EQ(s.stats().writes, 2);
  }
  // Chop the second (last) line in the middle of its payload.
  const auto full = fs::file_size(dir.file());
  std::string first_line;
  {
    std::ifstream is(dir.file());
    ASSERT_TRUE(std::getline(is, first_line));
  }
  const auto first_size = first_line.size() + 1;
  const auto torn = first_size + (full - first_size) / 2;
  fs::resize_file(dir.file(), torn);

  // ro never writes: the torn line is rejected and the file left alone.
  {
    std::ostringstream log_sink;
    log::set_sink(&log_sink);
    store::MeasurementStore ro;
    ro.open(dir.path(), store::StoreMode::kReadOnly);
    log::set_sink(nullptr);
    EXPECT_EQ(ro.stats().rejected, 1);
    EXPECT_EQ(ro.stats().repaired, 0);
    EXPECT_EQ(fs::file_size(dir.file()), torn);
  }
  {
    std::ostringstream log_sink;
    log::set_sink(&log_sink);
    store::MeasurementStore rw;
    rw.open(dir.path(), store::StoreMode::kReadWrite);
    log::set_sink(nullptr);
    EXPECT_NE(log_sink.str().find("repairing torn tail"), std::string::npos);
    EXPECT_EQ(rw.stats().repaired, 1);
    EXPECT_EQ(rw.stats().rejected, 0);
    EXPECT_EQ(rw.size(), 1u);
    EXPECT_EQ(fs::file_size(dir.file()), first_size);
    const std::string summary = rw.summary();
    EXPECT_EQ(summary.substr(summary.size() - 11), " repaired=1");
    EXPECT_EQ(acquire(rw), cold);  // the lost sweep is simulated again
    EXPECT_EQ(rw.stats().hits, 1);
    EXPECT_EQ(rw.stats().misses, 1);
    EXPECT_EQ(rw.stats().writes, 1);
  }
  store::MeasurementStore warm;
  warm.open(dir.path(), store::StoreMode::kReadWrite);
  EXPECT_EQ(acquire(warm), cold);
  const store::StoreStats stats = warm.stats();
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.writes, 0);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.repaired, 0);
  EXPECT_EQ(stats.hits, 2);
}

// --- Cold vs warm equivalence, consumer by consumer -----------------------
//
// The contract under test: a warm rerun answers every task from the store
// (zero fresh simulations) and returns bit-identical values, at any job
// count on either side.

TEST(WarmRestart, StaticTunerReplaysBitIdentically) {
  TempDir dir("static");
  const auto app = workload::BenchmarkSuite::by_name("Lulesh");
  baseline::StaticTunerOptions opts;
  opts.thread_counts = {16, 24};
  opts.cf_stride = 4;
  opts.ucf_stride = 4;

  store::MeasurementStore cold_store;
  cold_store.open(dir.path(), store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.jobs = 1;
  opts.store = &cold_store;
  baseline::StaticTuner cold_tuner(cold_node, opts);
  const auto cold = cold_tuner.tune(app);
  EXPECT_EQ(cold_store.stats().hits, 0);
  EXPECT_GT(cold_store.stats().writes, 0);

  store::MeasurementStore warm_store;
  warm_store.open(dir.path(), store::StoreMode::kReadOnly);
  auto warm_node = test_node();
  opts.jobs = 4;  // cache entries are jobs-invariant
  opts.store = &warm_store;
  baseline::StaticTuner warm_tuner(warm_node, opts);
  const auto warm = warm_tuner.tune(app);
  EXPECT_EQ(warm_store.stats().misses, 0);
  EXPECT_EQ(warm_store.stats().hits,
            static_cast<long>(warm.evaluated.size()));

  EXPECT_EQ(warm.best, cold.best);
  EXPECT_EQ(warm.runs, cold.runs);
  EXPECT_EQ(warm.search_time.value(), cold.search_time.value());
  ASSERT_EQ(warm.evaluated.size(), cold.evaluated.size());
  for (std::size_t i = 0; i < cold.evaluated.size(); ++i) {
    EXPECT_EQ(warm.evaluated[i].config, cold.evaluated[i].config);
    EXPECT_EQ(warm.evaluated[i].node_energy.value(),
              cold.evaluated[i].node_energy.value());
    EXPECT_EQ(warm.evaluated[i].cpu_energy.value(),
              cold.evaluated[i].cpu_energy.value());
    EXPECT_EQ(warm.evaluated[i].time.value(),
              cold.evaluated[i].time.value());
  }
}

TEST(WarmRestart, UndecodablePayloadFallsBackToSimulation) {
  TempDir dir("schema_drift");
  const auto app = workload::BenchmarkSuite::by_name("Lulesh");
  baseline::StaticTunerOptions opts;
  opts.thread_counts = {24};
  opts.cf_stride = 5;
  opts.ucf_stride = 5;
  opts.jobs = 1;

  store::MeasurementStore cold_store;
  cold_store.open(dir.path(), store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.store = &cold_store;
  baseline::StaticTuner cold_tuner(cold_node, opts);
  const auto cold = cold_tuner.tune(app);

  // Simulate a payload-schema drift: task and fingerprint still match, but
  // the payload no longer decodes. The consumer must log, re-simulate, and
  // return values identical to the cold run -- never crash the worker.
  {
    std::ifstream is(dir.file());
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    is.close();
    std::string::size_type pos = 0;
    while ((pos = text.find("node_energy", pos)) != std::string::npos)
      text.replace(pos, 11, "nodeXenergy");
    std::ofstream os(dir.file(), std::ios::trunc);
    os << text;
  }

  std::ostringstream log_sink;
  log::set_sink(&log_sink);
  store::MeasurementStore warm_store;
  warm_store.open(dir.path(), store::StoreMode::kReadWrite);
  auto warm_node = test_node();
  opts.store = &warm_store;
  baseline::StaticTuner warm_tuner(warm_node, opts);
  const auto warm = warm_tuner.tune(app);
  log::set_sink(nullptr);

  EXPECT_NE(log_sink.str().find("undecodable cache payload"),
            std::string::npos);
  EXPECT_EQ(warm.best, cold.best);
  ASSERT_EQ(warm.evaluated.size(), cold.evaluated.size());
  for (std::size_t i = 0; i < cold.evaluated.size(); ++i) {
    EXPECT_EQ(warm.evaluated[i].node_energy.value(),
              cold.evaluated[i].node_energy.value());
    EXPECT_EQ(warm.evaluated[i].time.value(),
              cold.evaluated[i].time.value());
  }
}

TEST(WarmRestart, ExhaustiveTunerReplaysBitIdentically) {
  TempDir dir("exhaustive");
  const auto app =
      workload::BenchmarkSuite::by_name("Mcb").with_iterations(4);
  baseline::ExhaustiveTunerOptions opts;
  opts.thread_counts = {24};
  opts.cf_stride = 5;
  opts.ucf_stride = 5;

  store::MeasurementStore cold_store;
  cold_store.open(dir.path(), store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.jobs = 2;
  opts.store = &cold_store;
  baseline::ExhaustiveTuner cold_tuner(cold_node, opts);
  const auto cold = cold_tuner.tune(app);

  store::MeasurementStore warm_store;
  warm_store.open(dir.path(), store::StoreMode::kReadWrite);
  auto warm_node = test_node();
  opts.jobs = 1;
  opts.store = &warm_store;
  baseline::ExhaustiveTuner warm_tuner(warm_node, opts);
  const auto warm = warm_tuner.tune(app);

  EXPECT_EQ(warm_store.stats().misses, 0);
  EXPECT_EQ(warm_store.stats().writes, 0);
  EXPECT_GT(warm_store.stats().hits, 0);
  EXPECT_EQ(warm.app_best, cold.app_best);
  EXPECT_EQ(warm.region_best, cold.region_best);
  EXPECT_EQ(warm.runs, cold.runs);
  EXPECT_EQ(warm.search_time.value(), cold.search_time.value());
  EXPECT_EQ(warm.formula_time.value(), cold.formula_time.value());
}

TEST(WarmRestart, ExperimentsEngineReplaysBitIdentically) {
  TempDir dir("engine");
  const auto app =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(5);
  const SystemConfig base{24, CoreFreq::mhz(2000), UncoreFreq::mhz(1500)};
  std::vector<ptf::Scenario> scenarios;
  scenarios.push_back(ptf::config_to_scenario(
      0, SystemConfig{24, CoreFreq::mhz(2500), UncoreFreq::mhz(3000)}));
  scenarios.push_back(ptf::config_to_scenario(
      1, SystemConfig{16, CoreFreq::mhz(1800), UncoreFreq::mhz(2200)}));
  scenarios.push_back(ptf::config_to_scenario(
      2, SystemConfig{20, CoreFreq::mhz(1200), UncoreFreq::mhz(1300)}));

  ptf::EngineOptions opts;
  opts.iterations_per_scenario = 2;

  store::MeasurementStore cold_store;
  cold_store.open(dir.path(), store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.jobs = 1;
  opts.store = &cold_store;
  ptf::ExperimentsEngine cold_engine(
      cold_node, app, instr::InstrumentationFilter::instrument_all(), opts);
  const auto cold = cold_engine.run(scenarios, base);

  store::MeasurementStore warm_store;
  warm_store.open(dir.path(), store::StoreMode::kReadWrite);
  auto warm_node = test_node();
  opts.jobs = 3;
  opts.store = &warm_store;
  ptf::ExperimentsEngine warm_engine(
      warm_node, app, instr::InstrumentationFilter::instrument_all(), opts);
  const auto warm = warm_engine.run(scenarios, base);

  EXPECT_EQ(warm_store.stats().misses, 0);
  EXPECT_GT(warm_store.stats().hits, 0);
  EXPECT_EQ(warm_engine.app_runs(), cold_engine.app_runs());
  EXPECT_EQ(warm_engine.experiment_time().value(),
            cold_engine.experiment_time().value());
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(warm[i].scenario.id, cold[i].scenario.id);
    EXPECT_EQ(warm[i].config, cold[i].config);
    EXPECT_EQ(warm[i].phase.node_energy.value(),
              cold[i].phase.node_energy.value());
    EXPECT_EQ(warm[i].phase.cpu_energy.value(),
              cold[i].phase.cpu_energy.value());
    EXPECT_EQ(warm[i].phase.time.value(), cold[i].phase.time.value());
    EXPECT_EQ(warm[i].phase.count, cold[i].phase.count);
    ASSERT_EQ(warm[i].regions.size(), cold[i].regions.size());
    for (const auto& [region, m] : cold[i].regions) {
      const auto& w = warm[i].regions.at(region);
      EXPECT_EQ(w.node_energy.value(), m.node_energy.value());
      EXPECT_EQ(w.cpu_energy.value(), m.cpu_energy.value());
      EXPECT_EQ(w.time.value(), m.time.value());
      EXPECT_EQ(w.count, m.count);
    }
  }
}

TEST(WarmRestart, DataAcquisitionReplaysBitIdentically) {
  TempDir dir("acquire");
  model::AcquisitionOptions opts;
  opts.thread_counts = {24};
  opts.cf_stride = 4;
  opts.ucf_stride = 4;
  opts.phase_iterations = 2;
  const std::vector<workload::Benchmark> benchmarks{
      workload::BenchmarkSuite::by_name("Lulesh"),
      workload::BenchmarkSuite::by_name("Mcb")};

  store::MeasurementStore cold_store;
  cold_store.open(dir.path(), store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.jobs = 2;
  opts.store = &cold_store;
  model::DataAcquisition cold_acq(cold_node, opts);
  const auto cold = cold_acq.acquire(benchmarks);
  EXPECT_EQ(cold_store.stats().writes, 2);  // one entry per benchmark sweep

  store::MeasurementStore warm_store;
  warm_store.open(dir.path(), store::StoreMode::kReadWrite);
  auto warm_node = test_node();
  opts.jobs = 1;
  opts.store = &warm_store;
  model::DataAcquisition warm_acq(warm_node, opts);
  const auto warm = warm_acq.acquire(benchmarks);

  EXPECT_EQ(warm_store.stats().hits, 2);
  EXPECT_EQ(warm_store.stats().misses, 0);
  EXPECT_EQ(warm_acq.runs_performed(), cold_acq.runs_performed());
  EXPECT_EQ(warm.feature_names, cold.feature_names);
  ASSERT_EQ(warm.samples.size(), cold.samples.size());
  for (std::size_t i = 0; i < cold.samples.size(); ++i) {
    EXPECT_EQ(warm.samples[i].benchmark, cold.samples[i].benchmark);
    EXPECT_EQ(warm.samples[i].threads, cold.samples[i].threads);
    EXPECT_EQ(warm.samples[i].cf, cold.samples[i].cf);
    EXPECT_EQ(warm.samples[i].ucf, cold.samples[i].ucf);
    EXPECT_EQ(warm.samples[i].features, cold.samples[i].features);
    EXPECT_EQ(warm.samples[i].normalized_energy,
              cold.samples[i].normalized_energy);
    EXPECT_EQ(warm.samples[i].normalized_power,
              cold.samples[i].normalized_power);
    EXPECT_EQ(warm.samples[i].normalized_time,
              cold.samples[i].normalized_time);
  }
}

// An acquisition payload that is structurally valid JSON (open() indexes
// it) but no longer decodes is logged and re-simulated, giving the cold
// dataset.
TEST(WarmRestart, UndecodableAcquisitionPayloadIsResimulated) {
  TempDir dir("acquire_drift");
  model::AcquisitionOptions opts;
  opts.thread_counts = {24};
  opts.cf_stride = 5;
  opts.ucf_stride = 5;
  opts.phase_iterations = 2;
  opts.jobs = 1;
  const std::vector<workload::Benchmark> benchmarks{
      workload::BenchmarkSuite::by_name("Lulesh")};

  store::MeasurementStore cold_store;
  cold_store.open(dir.path(), store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.store = &cold_store;
  model::DataAcquisition cold_acq(cold_node, opts);
  const auto cold = cold_acq.acquire(benchmarks);

  {
    std::ifstream is(dir.file());
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    is.close();
    const auto pos = text.find("\"normalized_time\"");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 17, "\"normalizedXtime\"");
    std::ofstream os(dir.file(), std::ios::trunc);
    os << text;
  }

  std::ostringstream log_sink;
  log::set_sink(&log_sink);
  store::MeasurementStore warm_store;
  warm_store.open(dir.path(), store::StoreMode::kReadWrite);
  auto warm_node = test_node();
  opts.store = &warm_store;
  model::DataAcquisition warm_acq(warm_node, opts);
  const auto warm = warm_acq.acquire(benchmarks);
  log::set_sink(nullptr);

  EXPECT_EQ(warm_store.stats().rejected, 0);
  EXPECT_EQ(warm_store.stats().writes, 1);
  EXPECT_NE(log_sink.str().find("undecodable cache payload"),
            std::string::npos);
  ASSERT_FALSE(cold.samples.empty());
  EXPECT_EQ(samples_text(warm), samples_text(cold));
  EXPECT_EQ(warm_acq.runs_performed(), cold_acq.runs_performed());
  EXPECT_EQ(warm_node.now().value(), cold_node.now().value());
}

TEST(WarmRestart, SavingsEvaluatorReplaysRowsBitIdentically) {
  TempDir dir("savings");
  // Small trained model: strided acquisition over two benchmarks.
  auto train_node = test_node(0, 7);
  model::AcquisitionOptions acq_opts;
  acq_opts.thread_counts = {16, 24};
  acq_opts.cf_stride = 3;
  acq_opts.ucf_stride = 3;
  acq_opts.phase_iterations = 2;
  model::DataAcquisition acq(train_node, acq_opts);
  model::EnergyModel trained;
  trained.train(acq.acquire({workload::BenchmarkSuite::by_name("Lulesh"),
                             workload::BenchmarkSuite::by_name("Mcb")}),
                5);

  core::SavingsOptions opts;
  opts.repeats = 2;
  opts.static_search.thread_counts = {16, 24};
  opts.static_search.cf_stride = 3;
  opts.static_search.ucf_stride = 3;
  const std::vector<workload::Benchmark> apps{
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(6)};

  store::MeasurementStore cold_store;
  cold_store.open(dir.path(), store::StoreMode::kReadWrite);
  auto cold_node = test_node();
  opts.jobs = 1;
  opts.store = &cold_store;
  core::SavingsEvaluator cold_eval(cold_node, trained, opts);
  const auto cold = cold_eval.evaluate_all(apps);

  store::MeasurementStore warm_store;
  warm_store.open(dir.path(), store::StoreMode::kReadWrite);
  auto warm_node = test_node();
  opts.jobs = 2;
  opts.store = &warm_store;
  core::SavingsEvaluator warm_eval(warm_node, trained, opts);
  const auto warm = warm_eval.evaluate_all(apps);

  // The whole row replays from one store entry: no inner lookups, no
  // fresh simulation.
  EXPECT_EQ(warm_store.stats().misses, 0);
  EXPECT_EQ(warm_store.stats().hits, 1);
  ASSERT_EQ(warm.size(), cold.size());
  const auto& c = cold[0];
  const auto& w = warm[0];
  EXPECT_EQ(w.benchmark, c.benchmark);
  EXPECT_EQ(w.static_config, c.static_config);
  EXPECT_EQ(w.static_job_energy_pct, c.static_job_energy_pct);
  EXPECT_EQ(w.static_cpu_energy_pct, c.static_cpu_energy_pct);
  EXPECT_EQ(w.static_time_pct, c.static_time_pct);
  EXPECT_EQ(w.dynamic_job_energy_pct, c.dynamic_job_energy_pct);
  EXPECT_EQ(w.dynamic_cpu_energy_pct, c.dynamic_cpu_energy_pct);
  EXPECT_EQ(w.dynamic_time_pct, c.dynamic_time_pct);
  EXPECT_EQ(w.perf_reduction_config_pct, c.perf_reduction_config_pct);
  EXPECT_EQ(w.overhead_pct, c.overhead_pct);
  EXPECT_EQ(w.dynamic_switches, c.dynamic_switches);
  EXPECT_EQ(w.dta.phase_best, c.dta.phase_best);
  EXPECT_EQ(w.dta.region_best, c.dta.region_best);
  EXPECT_EQ(w.dta.tuning_time.value(), c.dta.tuning_time.value());
  EXPECT_EQ(w.dta.app_runs, c.dta.app_runs);
  EXPECT_EQ(w.dta.tuning_model.to_json().dump(-1),
            c.dta.tuning_model.to_json().dump(-1));
}

// Rewrites the payload of every entry whose task starts with `prefix` to
// `{}`, keeping its envelope (task, fingerprint) valid so the entry loads
// and hits, and returns the rewritten tasks.
std::vector<std::string> blank_payloads(const std::string& file,
                                        const std::string& prefix) {
  std::vector<std::string> lines;
  std::vector<std::string> tasks;
  {
    std::ifstream is(file);
    for (std::string line; std::getline(is, line);) {
      Json entry = Json::parse(line);
      const std::string task = entry.at("task").as_string();
      if (task.starts_with(prefix)) {
        entry["payload"] = Json::object();
        line = entry.dump(-1);
        tasks.push_back(task);
      }
      lines.push_back(std::move(line));
    }
  }
  std::ofstream os(file, std::ios::trunc);
  for (const auto& line : lines) os << line << '\n';
  return tasks;
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

// Every entry kind that caches through store::cached falls back the same
// way: a payload that no longer decodes is logged once by task, recomputed
// to the cold result, and written again. (Static points, acquisition
// sweeps, the acquisition summary and the model have their own fallback
// tests.)
TEST(WarmRestart, EveryEntryKindRecomputesAnUndecodablePayload) {
  // Small trained model for the DTA and savings rows.
  auto train_node = test_node(0, 7);
  model::AcquisitionOptions acq_opts;
  acq_opts.thread_counts = {24};
  acq_opts.cf_stride = 3;
  acq_opts.ucf_stride = 3;
  acq_opts.phase_iterations = 2;
  model::DataAcquisition acq(train_node, acq_opts);
  model::EnergyModel trained;
  trained.train(acq.acquire({workload::BenchmarkSuite::by_name("Lulesh"),
                             workload::BenchmarkSuite::by_name("Mcb")}),
                2);

  const auto lulesh =
      workload::BenchmarkSuite::by_name("Lulesh").with_iterations(4);
  const auto mcb = workload::BenchmarkSuite::by_name("Mcb").with_iterations(4);

  // One run of a kind's consumer on a fresh node: its exact output text
  // (with the node clock it left behind) and the entries it wrote.
  struct Run {
    std::string output;
    long writes = 0;
  };
  using Body = std::function<std::string(store::MeasurementStore&,
                                         hwsim::NodeSimulator&)>;
  const auto on_store = [](Body body) {
    return [body](const std::string& dir) {
      store::MeasurementStore store;
      store.open(dir, store::StoreMode::kReadWrite);
      auto node = test_node();
      std::string output = body(store, node);
      output += " now=" + format_double(node.now().value());
      return Run{std::move(output), store.stats().writes};
    };
  };
  struct Kind {
    std::string prefix;  ///< task prefix of the kind's entries
    std::function<Run(const std::string& dir)> run;
  };
  const std::vector<Kind> kinds{
      {"engine/",
       on_store([&](store::MeasurementStore& store,
                    hwsim::NodeSimulator& node) {
         std::vector<ptf::Scenario> scenarios;
         scenarios.push_back(ptf::config_to_scenario(
             0, SystemConfig{24, CoreFreq::mhz(2500), UncoreFreq::mhz(3000)}));
         scenarios.push_back(ptf::config_to_scenario(
             1, SystemConfig{16, CoreFreq::mhz(1800), UncoreFreq::mhz(2200)}));
         ptf::EngineOptions opts;
         opts.iterations_per_scenario = 2;
         opts.store = &store;
         ptf::ExperimentsEngine engine(
             node, lulesh, instr::InstrumentationFilter::instrument_all(),
             opts);
         const SystemConfig base{24, CoreFreq::mhz(2000),
                                 UncoreFreq::mhz(1500)};
         Json all = Json::array();
         for (const auto& r : engine.run(scenarios, base)) {
           Json j = Json::object();
           j["id"] = r.scenario.id;
           j["config"] = store::to_json(r.config);
           j["phase"] = ptf::to_json(r.phase);
           Json regions = Json::object();
           for (const auto& [region, m] : r.regions)
             regions[region] = ptf::to_json(m);
           j["regions"] = std::move(regions);
           all.push_back(std::move(j));
         }
         return all.dump(-1) + " runs=" + std::to_string(engine.app_runs());
       })},
      {"exhaustive/",
       on_store([&](store::MeasurementStore& store,
                    hwsim::NodeSimulator& node) {
         baseline::ExhaustiveTunerOptions opts;
         opts.thread_counts = {24};
         opts.cf_stride = 5;
         opts.ucf_stride = 5;
         opts.store = &store;
         return baseline::ExhaustiveTuner(node, opts)
             .tune(TuningRequest{mcb})
             .to_json()
             .dump(-1);
       })},
      {"qlearn/",
       on_store([&](store::MeasurementStore& store,
                    hwsim::NodeSimulator& node) {
         tuners::QLearningOptions opts;
         opts.episodes = 6;
         opts.thread_counts = {24};
         opts.store = &store;
         return tuners::QLearningTuner(node, opts)
             .tune(TuningRequest{lulesh})
             .to_json()
             .dump(-1);
       })},
      {"governor/",
       on_store([&](store::MeasurementStore& store,
                    hwsim::NodeSimulator& node) {
         tuners::GovernorOptions opts;
         opts.store = &store;
         return tuners::GovernorTuner(node, tuners::GovernorPolicy::kOndemand,
                                      opts)
             .tune(TuningRequest{lulesh})
             .to_json()
             .dump(-1);
       })},
      {"dta/",
       [&](const std::string& dir) {
         // A DTA row is a Session entry; the Session opens its own store.
         api::Session session(api::SessionConfig{}.seed(42).cache(dir));
         session.use_model(trained);
         return Run{session.run_dta(lulesh).to_json().dump(-1),
                    session.store().stats().writes};
       }},
      {"tune/",
       [&](const std::string& dir) {
         // A tune row is a Session entry, like a DTA row.
         baseline::StaticTunerOptions search;
         search.thread_counts = {24};
         search.cf_stride = 5;
         search.ucf_stride = 5;
         api::Session session(
             api::SessionConfig{}.seed(42).cache(dir).static_search(search));
         return Run{session.tune("static", mcb).to_json().dump(-1),
                    session.store().stats().writes};
       }},
      {"savings/",
       on_store([&](store::MeasurementStore& store,
                    hwsim::NodeSimulator& node) {
         core::SavingsOptions opts;
         opts.repeats = 1;
         opts.static_search.thread_counts = {24};
         opts.static_search.cf_stride = 5;
         opts.static_search.ucf_stride = 5;
         opts.store = &store;
         Json rows = Json::array();
         for (const auto& row :
              core::SavingsEvaluator(node, trained, opts).evaluate_all({mcb}))
           rows.push_back(row.to_json());
         return rows.dump(-1);
       })},
  };

  for (const Kind& kind : kinds) {
    SCOPED_TRACE(kind.prefix);
    TempDir dir("blank_" + kind.prefix.substr(0, kind.prefix.size() - 1));
    const Run cold = kind.run(dir.path());
    const std::vector<std::string> tasks =
        blank_payloads(dir.file(), kind.prefix);
    ASSERT_FALSE(tasks.empty());

    std::ostringstream log_sink;
    log::set_sink(&log_sink);
    const Run warm = kind.run(dir.path());
    log::set_sink(nullptr);

    EXPECT_EQ(warm.output, cold.output);
    EXPECT_EQ(warm.writes, static_cast<long>(tasks.size()));
    EXPECT_EQ(count_of(log_sink.str(), "undecodable cache payload"),
              tasks.size())
        << log_sink.str();
    for (const std::string& task : tasks)
      EXPECT_EQ(count_of(log_sink.str(),
                         "undecodable cache payload for '" + task + "'"),
                1u)
          << task;
  }
}

// --- Serialization round trips --------------------------------------------

TEST(Serdes, MeasurementAndConfigRoundTripBitExactly) {
  ptf::Measurement m;
  m.node_energy = Joules(1234.567890123456789);
  m.cpu_energy = Joules(0.1 + 0.2);
  m.time = Seconds(1e-9 / 3.0);
  m.count = 42;
  // Through text: the payload is read back from its bytes, as on disk.
  const std::string text = ptf::to_json(m).dump(-1);
  JsonReader reader(text);
  const auto back = ptf::read_measurement(reader);
  reader.end();
  EXPECT_EQ(back.node_energy.value(), m.node_energy.value());
  EXPECT_EQ(back.cpu_energy.value(), m.cpu_energy.value());
  EXPECT_EQ(back.time.value(), m.time.value());
  EXPECT_EQ(back.count, m.count);

  const SystemConfig c{20, CoreFreq::mhz(1700), UncoreFreq::mhz(2600)};
  EXPECT_EQ(store::config_from_json(Json::parse(store::to_json(c).dump(-1))),
            c);
}

}  // namespace
}  // namespace ecotune
