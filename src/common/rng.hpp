#pragma once

#include <cstdint>
#include <string_view>

namespace ecotune {

/// FNV-1a 64-bit hash; used to derive independent RNG substreams from names.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Deterministic xoshiro256** PRNG; all simulator randomness flows through
/// named substreams of this generator for reproducible experiments.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds via SplitMix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derives an independent substream, e.g. Rng(seed).fork("node-3").
  [[nodiscard]] Rng fork(std::string_view name) const;

  /// Numeric-tag convenience for loop bodies (episode/task indices):
  /// Rng(seed).fork(i). Uses a derivation constant distinct from the string
  /// overload so fork(0) can never collide with fork("") or any named fork.
  [[nodiscard]] Rng fork(std::uint64_t tag) const;

  /// Next raw 64-bit draw.
  result_type operator()();

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0);

  /// Uniform integer in [lo, hi] inclusive (unbiased Lemire rejection
  /// draw; requires lo <= hi).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Gaussian draw (Box-Muller, cached spare).
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0);

  /// Order-sensitive hash of the full generator state (stream position and
  /// the cached Box-Muller spare). Two generators with equal state_hash()
  /// produce identical draw sequences; the measurement store folds this
  /// into cache-entry fingerprints so stale noise streams cannot hit.
  [[nodiscard]] std::uint64_t state_hash() const;

 private:
  explicit Rng(const std::uint64_t (&state)[4]);
  std::uint64_t s_[4];
  double spare_{0.0};
  bool has_spare_{false};
};

}  // namespace ecotune
