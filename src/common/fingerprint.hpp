#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/config.hpp"
#include "common/rng.hpp"

namespace ecotune {

/// Incremental FNV-1a-based content hash used to fingerprint the full
/// context a cached measurement depends on (benchmark, configuration,
/// simulator state, options). Every component is mixed with a label so that
/// two adjacent fields with swapped values cannot collide trivially, and
/// doubles are hashed by bit pattern so the fingerprint is exact (no
/// formatting round-trip).
class Fingerprint {
 public:
  /// What a string contributes to a fingerprint, computed once: adding it
  /// mixes exactly what adding the string itself does, so a large text that
  /// several fingerprints fold in (a trained model's weights) is hashed
  /// once instead of per fingerprint.
  struct Text {
    std::uint64_t hash = 0;
    std::uint64_t size = 0;

    [[nodiscard]] static Text of(std::string_view value) {
      return {fnv1a(value), static_cast<std::uint64_t>(value.size())};
    }
  };

  Fingerprint& add(std::string_view label, std::string_view value) {
    return add(label, Text::of(value));
  }

  Fingerprint& add(std::string_view label, const Text& text) {
    mix_label(label);
    mix(text.hash);
    mix(text.size);
    return *this;
  }

  /// Any integral value (including bool), widened through int64 so equal
  /// values of different integer widths hash identically.
  template <class T>
    requires std::is_integral_v<T>
  Fingerprint& add(std::string_view label, T value) {
    mix_label(label);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(value)));
    return *this;
  }

  Fingerprint& add(std::string_view label, double value) {
    mix_label(label);
    mix(std::bit_cast<std::uint64_t>(value));
    return *this;
  }

  Fingerprint& add(std::string_view label, const SystemConfig& c) {
    mix_label(label);
    mix(static_cast<std::uint64_t>(c.threads));
    mix(static_cast<std::uint64_t>(c.core.as_mhz()));
    mix(static_cast<std::uint64_t>(c.uncore.as_mhz()));
    return *this;
  }

  /// Folds a pre-computed digest (e.g. a node-state fingerprint) in.
  Fingerprint& add_digest(std::string_view label, std::uint64_t digest) {
    mix_label(label);
    mix(digest);
    return *this;
  }

  [[nodiscard]] std::uint64_t digest() const { return h_; }

  /// Fixed-width lowercase hex rendering of the digest (16 chars).
  [[nodiscard]] static std::string to_hex(std::uint64_t v) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
      out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
      v >>= 4;
    }
    return out;
  }

 private:
  void mix_label(std::string_view label) { mix(fnv1a(label)); }

  void mix(std::uint64_t v) {
    // FNV-1a over the 8 bytes of v, seeded by the running hash.
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace ecotune
