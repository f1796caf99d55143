#include "store/measurement_store.hpp"

#include <charconv>
#include <filesystem>
#include <sstream>
#include <system_error>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"

namespace ecotune::store {
namespace {

constexpr std::string_view kStoreFileName = "measurements.jsonl";

/// Parses the fixed-width hex fingerprint written by Fingerprint::to_hex.
std::optional<std::uint64_t> parse_hex_fingerprint(const std::string& text) {
  if (text.empty() || text.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (ec != std::errc() || ptr != text.data() + text.size())
    return std::nullopt;
  return value;
}

}  // namespace

StoreMode parse_store_mode(std::string_view text) {
  if (text == "off") return StoreMode::kOff;
  if (text == "ro") return StoreMode::kReadOnly;
  if (text == "rw") return StoreMode::kReadWrite;
  throw Error("parse_store_mode: expected off|ro|rw, got '" +
              std::string(text) + "'");
}

std::string_view to_string(StoreMode mode) {
  switch (mode) {
    case StoreMode::kOff:
      return "off";
    case StoreMode::kReadOnly:
      return "ro";
    case StoreMode::kReadWrite:
      return "rw";
  }
  return "off";
}

StoreMode resolve_store_mode(const std::string& mode_text,
                             const std::string& cache_dir) {
  const StoreMode mode = mode_text.empty()
                             ? (cache_dir.empty() ? StoreMode::kOff
                                                  : StoreMode::kReadWrite)
                             : parse_store_mode(mode_text);
  ensure(mode == StoreMode::kOff || !cache_dir.empty(),
         "--cache-mode " + std::string(to_string(mode)) +
             " requires --cache-dir");
  return mode;
}

MeasurementStore::MeasurementStore(const std::string& cache_dir,
                                   StoreMode mode) {
  open(cache_dir, mode);
}

void MeasurementStore::open(const std::string& cache_dir, StoreMode mode,
                            std::string scope, std::size_t shards) {
  // open() runs before any concurrent use (drivers open during CLI setup),
  // so the one-time setup below needs no locking; load_file still routes
  // entries through the shard locks to keep the analysis contract uniform.
  ensure(!enabled(), "MeasurementStore::open: already open");
  if (mode == StoreMode::kOff) return;
  scope_ = std::move(scope);
  ensure(!cache_dir.empty(),
         "MeasurementStore::open: cache directory required for mode '" +
             std::string(to_string(mode)) + "'");

  if (shards == 0) shards = kDefaultShardCount;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());

  namespace fs = std::filesystem;
  if (mode == StoreMode::kReadWrite) {
    std::error_code ec;
    fs::create_directories(cache_dir, ec);
    ensure(!ec, "MeasurementStore::open: cannot create cache directory '" +
                    cache_dir + "': " + ec.message());
  }

  dir_ = cache_dir;
  file_path_ = (fs::path(cache_dir) / kStoreFileName).string();
  if (fs::exists(file_path_)) load_file(file_path_);

  if (mode == StoreMode::kReadWrite) {
    // Unbuffered stream + one write() per entry line (below): with the OS
    // in append mode, concurrent writers sharing one cache directory
    // cannot interleave partial lines inside each other's entries.
    const MutexLock lock(append_mutex_);
    appender_.rdbuf()->pubsetbuf(nullptr, 0);
    appender_.open(file_path_, std::ios::app);
    ensure(appender_.good(),
           "MeasurementStore::open: cannot append to '" + file_path_ + "'");
  }
  mode_ = mode;
}

void MeasurementStore::load_file(const std::string& path) {
  std::ifstream is(path);
  ensure(is.good(), "MeasurementStore: cannot read '" + path + "'");
  std::string line;
  long line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    try {
      Json entry = Json::parse(line);
      const std::string& task = entry.at("task").as_string();
      const auto fp = parse_hex_fingerprint(entry.at("fp").as_string());
      ensure(fp.has_value(), "bad fingerprint");
      ensure(!task.empty(), "empty task");
      Shard& shard = shard_of(task);
      const MutexLock lock(shard.mutex_);
      // The parsed line is discarded afterwards, so its payload moves into
      // the index instead of being deep-copied.
      shard.entries_[task] = Entry{*fp, std::move(entry.at("payload"))};
    } catch (const std::exception& e) {
      // Loud rejection: a corrupt entry must never silently answer a
      // lookup, and the operator must learn the cache is damaged.
      {
        const MutexLock lock(append_mutex_);
        ++rejected_;
      }
      log::error("store") << "rejecting corrupt cache entry " << path << ':'
                          << line_no << " (" << e.what() << ')';
    }
  }
}

std::string MeasurementStore::scoped(const std::string& task) const {
  return scope_.empty() ? task : scope_ + "/" + task;
}

MeasurementStore::Shard& MeasurementStore::shard_of(
    const std::string& task) const {
  ECOTUNE_DCHECK(!shards_.empty(), "MeasurementStore: no shards (not open)");
  return *shards_[fnv1a(task) % shards_.size()];
}

std::optional<Json> MeasurementStore::lookup(const MeasurementKey& key) {
  if (mode_ == StoreMode::kOff) return std::nullopt;
  // Fingerprint precondition: a default-constructed key (digest 0) means
  // the caller forgot to hash the measurement context. Such a key could
  // never invalidate stale entries, silently breaking warm-restart
  // byte-identity; every real Fingerprint digest is FNV-mixed and is never
  // 0 in practice.
  ECOTUNE_DCHECK(key.fingerprint != 0,
                 "MeasurementStore::lookup: key carries no fingerprint");
  ECOTUNE_DCHECK(!key.task.empty(),
                 "MeasurementStore::lookup: empty task key");
  const std::string task = scoped(key.task);
  Shard& shard = shard_of(task);
  const MutexLock lock(shard.mutex_);
  return shard.lookup_locked(task, key.fingerprint);
}

std::optional<Json> MeasurementStore::Shard::lookup_locked(
    const std::string& task, std::uint64_t fingerprint) {
  auto it = entries_.find(task);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  if (it->second.fingerprint != fingerprint) {
    // The context behind this task changed (different benchmark revision,
    // seed, node state, options...): the stored value is stale. Drop it so
    // a subsequent insert can replace it.
    entries_.erase(it);
    ++invalidated_;
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second.payload;
}

void MeasurementStore::insert(const MeasurementKey& key, const Json& payload) {
  if (mode_ != StoreMode::kReadWrite) return;
  ensure(!key.task.empty(), "MeasurementStore::insert: empty task key");
  ECOTUNE_DCHECK(key.fingerprint != 0,
                 "MeasurementStore::insert: key carries no fingerprint");
  const std::string task = scoped(key.task);
  {
    Shard& shard = shard_of(task);
    const MutexLock lock(shard.mutex_);
    shard.insert_locked(task, key.fingerprint, payload);
  }
  // Shard lock released before the append lock is taken: the two locks are
  // never nested, so the overall order is acyclic by construction. Two
  // concurrent inserts of the *same* task may reach disk in either order,
  // but task keys are unique per measurement context and reload is
  // last-wins, so both interleavings replay to the same index.
  const MutexLock lock(append_mutex_);
  append_line_locked(task, key.fingerprint, payload);
}

void MeasurementStore::Shard::insert_locked(const std::string& task,
                                            std::uint64_t fingerprint,
                                            const Json& payload) {
  entries_[task] = Entry{fingerprint, payload};
}

void MeasurementStore::append_line_locked(const std::string& task,
                                          std::uint64_t fingerprint,
                                          const Json& payload) {
  Json line = Json::object();
  line["task"] = task;
  line["fp"] = Fingerprint::to_hex(fingerprint);
  line["payload"] = payload;
  // One write() call for the whole "entry\n" so appends stay atomic.
  const std::string text = line.dump(-1) + '\n';
  appender_.write(text.data(), static_cast<std::streamsize>(text.size()));
  appender_.flush();
  ensure(appender_.good(),
         "MeasurementStore::insert: write to '" + file_path_ + "' failed");
  ++writes_;
}

StoreStats MeasurementStore::stats() const {
  StoreStats total;
  // Shard-by-shard locked snapshot: each counter is internally consistent
  // (no torn reads), and with no in-flight requests the sums equal what a
  // single-mutex index would report. Summing in shard order keeps the
  // analysis happy -- no dynamic all-shards lock set.
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mutex_);
    total.hits += shard->hits_;
    total.misses += shard->misses_;
    total.invalidated += shard->invalidated_;
  }
  const MutexLock lock(append_mutex_);
  total.rejected = rejected_;
  total.writes = writes_;
  return total;
}

std::size_t MeasurementStore::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mutex_);
    total += shard->entries_.size();
  }
  return total;
}

std::string MeasurementStore::summary() const {
  const StoreStats s = stats();
  std::ostringstream os;
  os << "[measurement-store] hits=" << s.hits << " misses=" << s.misses
     << " invalidated=" << s.invalidated << " rejected=" << s.rejected
     << " writes=" << s.writes << " entries=" << size()
     << " (mode=" << to_string(mode_) << ", dir=" << (dir_.empty() ? "-" : dir_)
     << ')';
  return os.str();
}

}  // namespace ecotune::store
