#include "store/measurement_store.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace ecotune::store {
namespace {

constexpr std::string_view kStoreFileName = "measurements.jsonl";

/// Parses the fixed-width hex fingerprint written by Fingerprint::to_hex.
std::optional<std::uint64_t> parse_hex_fingerprint(std::string_view text) {
  if (text.empty() || text.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (ec != std::errc() || ptr != text.data() + text.size())
    return std::nullopt;
  return value;
}

/// One line's envelope, or why it is corrupt (`error` non-empty).
struct Envelope {
  std::string task;
  std::uint64_t fingerprint = 0;
  std::string_view payload;
  std::string error;
};

/// Decodes only the envelope of a store line; the payload is checked for
/// structure and returned where it lies in the line.
Envelope read_envelope(std::string_view line) {
  Envelope e;
  try {
    JsonReader reader(line);
    std::optional<std::uint64_t> fp;
    std::optional<std::string_view> payload;
    reader.begin_object();
    for (std::string_view key; reader.next_key(key);) {
      if (key == "task") {
        e.task = reader.string();
      } else if (key == "fp") {
        fp = parse_hex_fingerprint(reader.string());
        ensure(fp.has_value(), "bad fingerprint");
      } else if (key == "payload") {
        payload = reader.skip();
      } else {
        reader.skip();
      }
    }
    reader.end();
    ensure(!e.task.empty(), "missing or empty task");
    ensure(fp.has_value(), "missing fingerprint");
    ensure(payload.has_value(), "missing payload");
    e.fingerprint = *fp;
    e.payload = *payload;
  } catch (const std::exception& ex) {
    e.error = ex.what();
  }
  return e;
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

void MeasurementStore::open(const std::string& cache_dir, StoreMode mode,
                            std::string scope, int jobs) {
  // open() runs before any concurrent use (drivers open during CLI setup),
  // so the one-time setup below needs no locking; load_file still routes
  // entries through the shard locks to keep the analysis contract uniform.
  ensure(!enabled(), "MeasurementStore::open: already open");
  if (mode == StoreMode::kOff) return;
  scope_ = std::move(scope);
  ensure(!cache_dir.empty(),
         "MeasurementStore::open: cache directory required for mode '" +
             std::string(to_string(mode)) + "'");

  namespace fs = std::filesystem;
  if (mode == StoreMode::kReadWrite) {
    std::error_code ec;
    fs::create_directories(cache_dir, ec);
    ensure(!ec, "MeasurementStore::open: cannot create cache directory '" +
                    cache_dir + "': " + ec.message());
  }

  dir_ = cache_dir;
  file_path_ = (fs::path(cache_dir) / kStoreFileName).string();
  if (fs::exists(file_path_)) load_file(mode, jobs);

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

void MeasurementStore::load_file(StoreMode mode, int jobs) {
  namespace fs = std::filesystem;
  ThreadPool pool(jobs);
  // Read in one slice per job: for a multi-MB store, faulting in the fresh
  // buffer costs more than the copy, and the faults proceed in parallel.
  const auto size = static_cast<std::size_t>(fs::file_size(file_path_));
  file_ = std::make_unique_for_overwrite<char[]>(size);
  const std::size_t slices = static_cast<std::size_t>(pool.jobs());
  const std::size_t slice = (size + slices - 1) / slices;
  pool.run(slices, [&](std::size_t k) {
    const std::size_t begin = std::min(size, k * slice);
    const std::size_t count = std::min(size, begin + slice) - begin;
    std::ifstream is(file_path_, std::ios::binary);
    is.seekg(static_cast<std::streamoff>(begin));
    is.read(file_.get() + begin, static_cast<std::streamsize>(count));
    ensure(is.gcount() == static_cast<std::streamsize>(count),
           "MeasurementStore: cannot read '" + file_path_ + "'");
  });
  std::string_view text(file_.get(), size);
  if (mode == StoreMode::kReadWrite && !text.empty() &&
      text.back() != '\n') {
    // A writer died mid-append. Appending behind the torn line would glue
    // the next entry onto it and lose both, so cut the file back to its
    // last complete line first (npos + 1 == 0: no complete line at all).
    const std::size_t keep = text.rfind('\n') + 1;
    log::warn("store") << "repairing torn tail of " << file_path_
                       << ": dropping " << text.size() - keep
                       << " bytes after the last complete line";
    std::error_code ec;
    fs::resize_file(file_path_, keep, ec);
    ensure(!ec, "MeasurementStore::open: cannot truncate '" + file_path_ +
                    "': " + ec.message());
    text = text.substr(0, keep);
    const MutexLock lock(append_mutex_);
    ++repaired_;
  }
  struct Line {
    std::string_view text;
    long number = 0;
  };
  std::vector<Line> lines;
  long line_no = 0;
  for (std::size_t begin = 0; begin < text.size();) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(begin, end - begin);
    begin = end + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) lines.push_back({line, line_no});
  }
  // Lines are validated in parallel (every payload byte is scanned);
  // indexing then runs in file order, so later duplicates still win and
  // rejections are logged in line order.
  std::vector<Envelope> envelopes(lines.size());
  pool.run(lines.size(),
           [&](std::size_t i) { envelopes[i] = read_envelope(lines[i].text); });
  for (std::size_t i = 0; i < lines.size(); ++i) {
    Envelope& e = envelopes[i];
    if (!e.error.empty()) {
      // Loud rejection: a corrupt entry must never silently answer a
      // lookup, and the operator must learn the cache is damaged.
      {
        const MutexLock lock(append_mutex_);
        ++rejected_;
      }
      log::error("store") << "rejecting corrupt cache entry " << file_path_
                          << ':' << lines[i].number << " (" << e.error << ')';
      continue;
    }
    Shard& shard = shard_of(e.task);
    const MutexLock lock(shard.mutex_);
    shard.entries_[std::move(e.task)] = Entry{e.fingerprint, e.payload};
  }
}

std::string MeasurementStore::scoped(const std::string& task) const {
  return scope_.empty() ? task : scope_ + "/" + task;
}

MeasurementStore::Shard& MeasurementStore::shard_of(
    const std::string& task) const {
  return shards_[fnv1a(task) % kShardCount];
}

std::optional<std::string_view> MeasurementStore::lookup(
    const MeasurementKey& key) {
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

std::optional<std::string_view> MeasurementStore::Shard::lookup_locked(
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
  // The line Json writes for {"task", "fp", "payload"} (keys in sorted
  // order), assembled around the payload's bytes so the index keeps them.
  std::string line = "{\"fp\":\"" + Fingerprint::to_hex(key.fingerprint) +
                     "\",\"payload\":";
  const std::size_t payload_at = line.size();
  line += payload.dump(-1);
  const std::size_t payload_size = line.size() - payload_at;
  line += ",\"task\":";
  line += Json(task).dump(-1);
  line += "}\n";
  const std::string* stored = nullptr;
  {
    Shard& shard = shard_of(task);
    const MutexLock lock(shard.mutex_);
    stored = &shard.lines_.emplace_back(std::move(line));
    shard.entries_[task] =
        Entry{key.fingerprint,
              std::string_view(*stored).substr(payload_at, payload_size)};
  }
  // Shard lock released before the append lock is taken: the two locks are
  // never nested, so the overall order is acyclic by construction. The
  // stored line is immutable, so it is read here without the shard lock.
  // Two concurrent inserts of the *same* task may reach disk in either
  // order, but task keys are unique per measurement context and reload is
  // last-wins, so both interleavings replay to the same index.
  const MutexLock lock(append_mutex_);
  // One write() call for the whole "entry\n" so appends stay atomic.
  appender_.write(stored->data(), static_cast<std::streamsize>(stored->size()));
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
    const MutexLock lock(shard.mutex_);
    total.hits += shard.hits_;
    total.misses += shard.misses_;
    total.invalidated += shard.invalidated_;
  }
  const MutexLock lock(append_mutex_);
  total.rejected = rejected_;
  total.writes = writes_;
  total.repaired = repaired_;
  return total;
}

std::size_t MeasurementStore::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard.mutex_);
    total += shard.entries_.size();
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
     << ") repaired=" << s.repaired;
  return os.str();
}

}  // namespace ecotune::store
