#include "store/measurement_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <filesystem>
#include <sstream>
#include <system_error>
#include <vector>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/logging.hpp"
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

/// open() reads the file through a buffer of at most this size.
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

/// The pieces of a store line, {"fp":"<hex>","payload":<value>,"task":"…"}:
/// the bytes Json writes for that object (keys sorted). insert() writes
/// them and open() parses them.
constexpr std::string_view kFp = "{\"fp\":\"";
constexpr std::string_view kPayload = "\",\"payload\":";
constexpr std::string_view kTask = ",\"task\":";

/// Throws the Error for a failed system call on the store file.
[[noreturn]] void fail(std::string_view what, const std::string& path) {
  throw Error("MeasurementStore: cannot " + std::string(what) + " '" + path +
              "': " + std::generic_category().message(errno));
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

MeasurementStore::~MeasurementStore() {
  if (fd_ >= 0) ::close(fd_);
}

void MeasurementStore::open(const std::string& cache_dir, StoreMode mode,
                            std::string scope) {
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
  // O_APPEND: each write() lands whole at the end of the file, so
  // processes sharing one cache directory never interleave partial lines.
  const int flags = mode == StoreMode::kReadWrite
                        ? O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC
                        : O_RDONLY | O_CLOEXEC;
  fd_ = ::open(file_path_.c_str(), flags, 0666);
  if (fd_ >= 0) {
    load_file(mode);
  } else if (mode == StoreMode::kReadWrite || errno != ENOENT) {
    fail("open", file_path_);
  }
  mode_ = mode;
}

void MeasurementStore::load_file(StoreMode mode) {
  struct stat file {};
  if (::fstat(fd_, &file) != 0) fail("stat", file_path_);
  // No larger than the file: an empty or small store costs no 1 MiB.
  std::vector<char> chunk(
      std::min(kChunkBytes, static_cast<std::size_t>(file.st_size)));
  std::string carry;           // the unterminated line read so far
  std::uint64_t carry_at = 0;  // its file offset
  std::uint64_t offset = 0;    // bytes of the file read so far
  long line_no = 0;
  // Indexes each complete line from `offset` to the end of the file.
  const auto scan = [&] {
    for (ssize_t n = 0; (n = ::pread(fd_, chunk.data(), chunk.size(),
                                      static_cast<off_t>(offset))) != 0;
         offset += static_cast<std::uint64_t>(n)) {
      if (n < 0) fail("read", file_path_);
      const std::string_view text(chunk.data(), static_cast<std::size_t>(n));
      std::size_t begin = 0;
      for (std::size_t end = 0;
           (end = text.find('\n', begin)) != std::string_view::npos;
           begin = end + 1) {
        if (carry.empty()) {
          index_line(text.substr(begin, end - begin), offset + begin,
                     ++line_no);
        } else {
          carry += text.substr(begin, end - begin);
          index_line(carry, carry_at, ++line_no);
          carry.clear();
        }
      }
      if (carry.empty()) carry_at = offset + begin;
      carry += text.substr(begin);
    }
  };
  scan();
  if (carry.empty()) return;
  if (mode == StoreMode::kReadOnly) return reject(line_no + 1, "torn tail");
  // The unterminated line is a live writer's, or the torn tail of a writer
  // that died mid-append. Appends hold the lock shared, so under the
  // exclusive lock none is in flight: read the file again from that line
  // on, and what is still unterminated then is torn. Appending behind it
  // would glue the next entry onto it and lose both, so cut it off.
  if (::flock(fd_, LOCK_EX) != 0) fail("lock", file_path_);
  carry.clear();
  offset = carry_at;
  scan();
  const bool torn = !carry.empty();
  if (torn && ::ftruncate(fd_, static_cast<off_t>(carry_at)) != 0)
    fail("truncate", file_path_);  // closing fd_ releases the lock
  ::flock(fd_, LOCK_UN);
  if (!torn) return;
  log::warn("store") << "repairing torn tail of " << file_path_
                     << ": dropping " << carry.size()
                     << " bytes after the last complete line";
  ++repaired_;
}

void MeasurementStore::index_line(std::string_view line, std::uint64_t at,
                                  long line_no) {
  // The task is the string after the line's last `,"task":` (a JSON
  // string escapes its quotes, so only the envelope's key is that); the
  // payload is not read.
  if (line.ends_with('\r')) line.remove_suffix(1);
  if (line.empty()) return;
  const std::size_t fp_end = line.find('"', kFp.size());
  const std::size_t payload_at = fp_end + kPayload.size();
  const std::size_t task_at = line.rfind(kTask);
  std::optional<std::uint64_t> fp;
  std::string task;
  if (line.starts_with(kFp) && line.ends_with('}') &&
      fp_end != std::string_view::npos && task_at != std::string_view::npos &&
      task_at > payload_at && line.substr(fp_end).starts_with(kPayload)) {
    fp = parse_hex_fingerprint(line.substr(kFp.size(), fp_end - kFp.size()));
    try {
      JsonReader reader(line.substr(task_at + kTask.size(),
                                    line.size() - 1 - task_at - kTask.size()));
      task = reader.string();
      reader.end();
    } catch (const std::exception&) {
      task.clear();
    }
  }
  if (!fp || task.empty()) return reject(line_no, "not a store envelope");
  Shard& shard = shard_of(task);
  const MutexLock lock(shard.mutex_);
  shard.entries_[std::move(task)] =
      Entry{*fp, nullptr, at + payload_at, task_at - payload_at, line_no};
}

void MeasurementStore::reject(long line_no, std::string_view why) {
  // Loud rejection: a corrupt entry must never silently answer a lookup,
  // and the operator must learn the cache is damaged.
  ++rejected_;
  log::error("store") << "rejecting corrupt cache entry " << file_path_ << ':'
                      << line_no << " (" << why << ')';
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
  return shard.lookup_locked(task, key.fingerprint, fd_, file_path_);
}

std::optional<std::string_view> MeasurementStore::Shard::lookup_locked(
    const std::string& task, std::uint64_t fingerprint, int fd,
    const std::string& file_path) {
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
  Entry& entry = it->second;
  if (entry.data == nullptr) {
    // First hit of an entry loaded at open: read its bytes and check them
    // as open() once did, so a corrupt payload still never answers.
    std::string& bytes = lines_.emplace_back(entry.size, '\0');
    std::string why = "short read";
    try {
      if (::pread(fd, bytes.data(), bytes.size(),
                  static_cast<off_t>(entry.offset)) ==
          static_cast<ssize_t>(bytes.size())) {
        JsonReader reader(bytes);
        reader.skip();
        reader.end();
        why.clear();
      }
    } catch (const std::exception& ex) {
      why = ex.what();
    }
    if (!why.empty()) {
      log::error("store") << "rejecting corrupt cache entry " << file_path
                          << ':' << entry.line << " (" << why << ')';
      lines_.pop_back();
      entries_.erase(it);
      ++rejected_;
      ++misses_;
      return std::nullopt;
    }
    entry.data = bytes.data();
  }
  ++hits_;
  return std::string_view(entry.data, entry.size);
}

void MeasurementStore::insert(const MeasurementKey& key, const Json& payload) {
  if (mode_ != StoreMode::kReadWrite) return;
  ensure(!key.task.empty(), "MeasurementStore::insert: empty task key");
  ECOTUNE_DCHECK(key.fingerprint != 0,
                 "MeasurementStore::insert: key carries no fingerprint");
  const std::string task = scoped(key.task);
  // The envelope is assembled around the payload's bytes so the index
  // keeps them.
  std::string line(kFp);
  line += Fingerprint::to_hex(key.fingerprint);
  line += kPayload;
  const std::size_t payload_at = line.size();
  line += payload.dump(-1);
  const std::size_t payload_size = line.size() - payload_at;
  line += kTask;
  line += Json(task).dump(-1);
  line += "}\n";
  const std::string* stored = nullptr;
  {
    Shard& shard = shard_of(task);
    const MutexLock lock(shard.mutex_);
    stored = &shard.lines_.emplace_back(std::move(line));
    shard.entries_[task] =
        Entry{key.fingerprint, stored->data() + payload_at, 0, payload_size, 0};
  }
  // Shard lock released before the append lock is taken: the two locks are
  // never nested, so the overall order is acyclic by construction. The
  // stored line is immutable, so it is read here without the shard lock.
  // Two concurrent inserts of the *same* task may reach disk in either
  // order, but task keys are unique per measurement context and reload is
  // last-wins, so both interleavings replay to the same index.
  const MutexLock lock(append_mutex_);
  // One write() for the whole "entry\n" keeps the append atomic; the shared
  // lock keeps another store's rw open() from cutting it as a torn tail.
  if (::flock(fd_, LOCK_SH) != 0) fail("lock", file_path_);
  const ssize_t n = ::write(fd_, stored->data(), stored->size());
  ::flock(fd_, LOCK_UN);
  if (n != static_cast<ssize_t>(stored->size())) fail("append to", file_path_);
  ++writes_;
}

StoreStats MeasurementStore::stats() const {
  StoreStats total;
  // Shard-by-shard locked snapshot: each counter is internally consistent
  // (no torn reads), and with no in-flight requests the sums equal what a
  // single-mutex index would report. Summing in shard order keeps the
  // analysis happy -- no dynamic all-shards lock set.
  total.rejected = rejected_;
  total.repaired = repaired_;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard.mutex_);
    total.hits += shard.hits_;
    total.misses += shard.misses_;
    total.invalidated += shard.invalidated_;
    total.rejected += shard.rejected_;
  }
  const MutexLock lock(append_mutex_);
  total.writes = writes_;
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
