#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace ecotune::store {

/// Access policy of the measurement store.
enum class StoreMode {
  kOff,        ///< store disabled: every lookup misses, inserts are dropped
  kReadOnly,   ///< answer from the cache, never write anything
  kReadWrite,  ///< answer from the cache and append fresh measurements
};

/// Parses "off" | "ro" | "rw"; throws Error on anything else.
[[nodiscard]] StoreMode parse_store_mode(std::string_view text);
[[nodiscard]] std::string_view to_string(StoreMode mode);

/// Shared CLI semantics of --cache-mode/--cache-dir: empty mode text means
/// rw when a cache dir is given and off otherwise; a non-off mode without a
/// cache dir is an error. Throws Error with a user-facing message.
[[nodiscard]] StoreMode resolve_store_mode(const std::string& mode_text,
                                           const std::string& cache_dir);

/// Identity of one cached measurement task.
///
/// `task` is the human-readable address used for lookup (e.g.
/// "engine/Lulesh/run-0/chunk-3"); `fingerprint` is the exact content hash
/// of everything the measured values depend on -- benchmark, configuration
/// schedule, engine options, seed, and the node/CPU-spec state digest
/// (hwsim::NodeSimulator::state_fingerprint). A lookup only hits when both
/// match; a task match with a fingerprint mismatch invalidates the stale
/// entry instead of answering with it.
struct MeasurementKey {
  std::string task;
  std::uint64_t fingerprint = 0;
};

/// Hit/miss accounting, surfaced in driver summaries (on stderr, so driver
/// stdout stays byte-identical between cold and warm runs).
struct StoreStats {
  long hits = 0;         ///< lookups answered from the store
  long misses = 0;       ///< lookups that found nothing usable
  long invalidated = 0;  ///< entries dropped on fingerprint mismatch
  long rejected = 0;     ///< corrupt on-disk entries refused at load
  long writes = 0;       ///< entries appended this session
  long repaired = 0;     ///< torn file tails truncated at open (rw mode)
};

/// Persistent, content-addressed measurement store.
///
/// In-memory map of task -> (fingerprint, payload bytes) backed by an
/// append-only JSON-lines file `<cache_dir>/measurements.jsonl`. Every
/// measurement consumer (experiments engine, baseline tuners, data
/// acquisition, savings evaluator, the tuning service) consults the store
/// before simulating and appends what it measured, so a warm rerun of any
/// driver answers already-seen scenario measurements from disk instead of
/// re-simulating them. Payload values round-trip bit-exactly (Json
/// serializes doubles via std::to_chars), which is what makes warm output
/// byte-identical to a cold run.
///
/// A payload is kept as its compact JSON text, never as a tree: open()
/// reads the file into one buffer and indexes each line's payload bytes
/// where they lie; insert() keeps the line it appends. A hit hands the
/// caller a view of those bytes, and the caller decodes them into its own
/// types (JsonReader, or Json::parse for a whole-row payload). Bytes are
/// never freed or moved before the store is destroyed -- an invalidated or
/// replaced entry only stops being indexed -- so a view stays readable
/// while other threads invalidate or replace its task. The memory held is
/// therefore the file's size, superseded lines included.
///
/// Thread safety: the in-memory index is split into kShardCount (16)
/// fingerprint-hashed shards (FNV-1a over the scoped task key), each an
/// independently `ecotune::Mutex`-guarded map, so concurrent lookups of
/// different tasks proceed without serializing on one global lock. The disk
/// appender and its counters sit behind a separate `append_mutex_` that is
/// only ever taken *after* a shard lock is released, so the lock order is
/// trivially acyclic. The discipline is compiler-proved: every guarded
/// member carries ECOTUNE_GUARDED_BY and the _locked helpers carry
/// ECOTUNE_REQUIRES, so a Clang `-Wthread-safety` build rejects any access
/// outside the lock. mode_/dir_/scope_/file_path_/file_ are written
/// exactly once by open() (before any concurrent use -- drivers open the
/// store during CLI setup) and are read-only afterwards, which is why the
/// cheap accessors below take no lock. The shards only partition the
/// task-key space: warm-restart identity is over their union.
class MeasurementStore {
 public:
  /// Constructs a disabled (kOff) store; open() activates it.
  MeasurementStore() = default;

  /// Opens the backing directory (created if missing in rw mode) and loads
  /// every valid entry of measurements.jsonl into memory. A line is valid
  /// when it is an object with a non-empty "task", a hex "fp" and a
  /// structurally complete "payload"; payload numbers are not converted
  /// here, so a payload that does not decode is its consumer's miss.
  /// Corrupt lines are rejected loudly (log::error with file and line
  /// number, counted in stats().rejected) and never answer lookups. Later
  /// duplicates of a task win, matching append-only semantics.
  ///
  /// In rw mode a file that does not end in '\n' has a torn last line (a
  /// writer died mid-append): it is truncated to its last newline before
  /// anything is appended, logged, and counted in stats().repaired.
  ///
  /// `scope` namespaces every task key ("scope/task"); drivers pass their
  /// own name so several drivers can share one cache directory without
  /// colliding on identical task ids (which would ping-pong-invalidate each
  /// other's entries, since their contexts fingerprint differently).
  ///
  /// `jobs` lines are validated concurrently (<= 0 means the hardware
  /// concurrency); they are indexed in file order afterwards. It is a pure
  /// concurrency knob: lookup results, stats totals, log lines and the
  /// on-disk format are identical for every value.
  void open(const std::string& cache_dir, StoreMode mode,
            std::string scope = {}, int jobs = 1);

  [[nodiscard]] bool enabled() const { return mode_ != StoreMode::kOff; }
  [[nodiscard]] StoreMode mode() const { return mode_; }

  /// Returns the compact JSON bytes recorded for `key`, or nullopt on miss.
  /// The view is valid until the store is destroyed (see the class
  /// comment). A stored entry whose fingerprint differs from
  /// key.fingerprint is stale (the context changed); it is invalidated and
  /// the lookup misses.
  [[nodiscard]] std::optional<std::string_view> lookup(
      const MeasurementKey& key);

  /// Records `payload` under `key`. No-op in ro/off mode. In rw mode the
  /// entry is appended to disk immediately (one JSON line, flushed), so a
  /// killed run still leaves a usable cache; the index keeps that line's
  /// bytes.
  void insert(const MeasurementKey& key, const Json& payload)
      ECOTUNE_EXCLUDES(append_mutex_);

  /// Consistent snapshot of the counters, safe to poll concurrently with
  /// in-flight lookups/inserts: each shard contributes its totals under its
  /// own lock, then the appender counters are added under append_mutex_.
  [[nodiscard]] StoreStats stats() const ECOTUNE_EXCLUDES(append_mutex_);
  [[nodiscard]] std::size_t size() const;

  /// One-line, machine-greppable summary:
  /// "[measurement-store] hits=H misses=M invalidated=I rejected=R writes=W
  ///  entries=E (mode=rw, dir=...) repaired=P". Drivers print it to stderr.
  [[nodiscard]] std::string summary() const ECOTUNE_EXCLUDES(append_mutex_);

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    std::string_view payload;  ///< into file_ or a Shard::lines_ element
  };

  /// One fingerprint-hashed slice of the index. Shards never share state:
  /// a task key maps to exactly one shard (shard_of), so per-shard counters
  /// sum to the same totals a single-mutex index would report. Each
  /// shard starts a cache line, so one shard's lock and counters never
  /// share a line with its neighbours' or with the fields every lookup
  /// reads.
  struct alignas(64) Shard {
    /// Lock-held workhorses behind the public lookup/insert; the REQUIRES
    /// contract is what the Clang lane's negative check targets.
    [[nodiscard]] std::optional<std::string_view> lookup_locked(
        const std::string& task, std::uint64_t fingerprint)
        ECOTUNE_REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::map<std::string, Entry> entries_ ECOTUNE_GUARDED_BY(mutex_);
    /// Lines inserted this session. A deque never moves its elements, and
    /// nothing is erased, so entries_ and handed-out views stay valid.
    std::deque<std::string> lines_ ECOTUNE_GUARDED_BY(mutex_);
    long hits_ ECOTUNE_GUARDED_BY(mutex_) = 0;
    long misses_ ECOTUNE_GUARDED_BY(mutex_) = 0;
    long invalidated_ ECOTUNE_GUARDED_BY(mutex_) = 0;
  };

  static constexpr std::size_t kShardCount = 16;

  [[nodiscard]] Shard& shard_of(const std::string& task) const;
  void load_file(StoreMode mode, int jobs);
  [[nodiscard]] std::string scoped(const std::string& task) const;

  StoreMode mode_ = StoreMode::kOff;
  std::string dir_;
  std::string scope_;
  std::string file_path_;
  /// measurements.jsonl as read by open(); loaded entries point into it.
  std::unique_ptr<char[]> file_;
  /// mutable: shard_of hands a const store's shard out for locking.
  mutable std::array<Shard, kShardCount> shards_;

  /// Serializes the append-only disk stream; never held together with a
  /// shard lock (insert releases the shard before appending).
  mutable Mutex append_mutex_;
  std::ofstream appender_ ECOTUNE_GUARDED_BY(append_mutex_);
  long rejected_ ECOTUNE_GUARDED_BY(append_mutex_) = 0;
  long writes_ ECOTUNE_GUARDED_BY(append_mutex_) = 0;
  long repaired_ ECOTUNE_GUARDED_BY(append_mutex_) = 0;
};

}  // namespace ecotune::store
