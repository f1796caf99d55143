#pragma once

// The SIMD substrate of the ecotune kernel layer: runtime level detection,
// the process-wide dispatch level (ECOTUNE_SIMD), a 64-byte-aligned
// allocator for kernel-visible storage, and the two four-lane value types
// the NN engine (nn/kernels_engine.inc) is instantiated on: V4 over AVX2
// registers and VS, its plain-C++ twin.
//
// This header is the ONLY file in the tree allowed to touch raw vendor
// intrinsics (`_mm*`, <immintrin.h>); the `raw-intrinsics` lint rule
// enforces that. Everything above (src/nn/kernels.*) speaks V4 / VS.
//
// Determinism contract
// --------------------
// Every wrapper maps to exactly one correctly rounded IEEE-754 double
// operation per lane — no reciprocal/rsqrt approximations, no
// reassociation inside a wrapper, fma() fused in hardware (V4) or by
// std::fma (VS). Both lane types therefore compute the same bits for the
// same sequence of calls, so the engine produces identical results at
// every dispatch level; the level only changes speed. Any loop built from
// them computes one fixed, machine-independent sequence of rounding steps,
// independent of thread count and run-to-run state.
//
// relu(): x > 0 ? x : +0.0, so -0.0 and NaN pre-activations map to +0.0,
// exactly like std::max(0.0, x) (maxpd returns the second operand unless
// the first is greater).

#include <array>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/error.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#define ECOTUNE_SIMD_X86 1
#include <immintrin.h>
#else
#define ECOTUNE_SIMD_X86 0
#endif

#if ECOTUNE_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
#define ECOTUNE_TARGET_AVX2 __attribute__((target("avx2,fma")))
#else
#define ECOTUNE_TARGET_AVX2
#endif

namespace ecotune::simd {

/// Kernel dispatch levels, ordered by capability. Both run the same NN
/// engine and produce the same bits: kScalar on VS lanes (any CPU), kAvx2
/// — which requires the FMA feature bit too — on V4 registers.
enum class Level {
  kScalar = 0,
  kAvx2 = 1,
};

[[nodiscard]] inline const char* to_string(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "scalar";
}

/// Best level the running CPU supports. AVX2+FMA is probed at runtime, so
/// one binary serves both levels. (kAvx2 compiles with target("avx2,fma"),
/// hence the double probe.)
[[nodiscard]] inline Level detect_best() {
#if ECOTUNE_SIMD_X86 && (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return Level::kAvx2;
#endif
  return Level::kScalar;
}

[[nodiscard]] inline bool supported(Level level) {
  return static_cast<int>(level) <= static_cast<int>(detect_best());
}

/// Parses an ECOTUNE_SIMD value. Accepted: "off"/"scalar", "avx2",
/// "auto"/"on"/"" (best supported). Anything else throws ConfigError — a
/// typo must not silently change the code path.
[[nodiscard]] inline Level parse_level(const std::string& text) {
  if (text == "off" || text == "scalar") return Level::kScalar;
  if (text == "avx2") return Level::kAvx2;
  if (text.empty() || text == "auto" || text == "on") return detect_best();
  throw ConfigError("ECOTUNE_SIMD: unknown level '" + text +
                    "' (expected off|scalar|avx2|auto)");
}

namespace detail {
inline std::atomic<Level>& level_slot() {
  // Initialized once from the environment (then clamped to what the CPU
  // supports); tests and benchmarks override it through set_level().
  static std::atomic<Level> slot = [] {
    const char* env = std::getenv("ECOTUNE_SIMD");
    Level level = parse_level(env == nullptr ? std::string() : env);
    if (!supported(level)) level = detect_best();
    return level;
  }();
  return slot;
}
}  // namespace detail

/// The process-wide dispatch level.
[[nodiscard]] inline Level active_level() {
  return detail::level_slot().load(std::memory_order_relaxed);
}

/// Forces the dispatch level (process-wide). Throws ConfigError when the
/// CPU cannot execute the requested level.
inline void set_level(Level level) {
  ensure(supported(level), std::string("simd::set_level: level '") +
                               to_string(level) +
                               "' is not supported by this CPU");
  detail::level_slot().store(level, std::memory_order_relaxed);
}

/// Read-prefetch hint into all cache levels; a no-op where unsupported.
/// Purely a scheduling hint — never changes results.
inline void prefetch(const void* p) { __builtin_prefetch(p, 0, 3); }

/// RAII level override for tests and benchmarks.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) : previous_(active_level()) {
    set_level(level);
  }
  ~ScopedLevel() { set_level(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level previous_;
};

/// Minimal C++17 allocator with 64-byte alignment: kernel loads/stores
/// assume 32-byte-aligned block starts, and 64 keeps hot buffers on cache
/// line boundaries too.
template <class T, std::size_t Alignment = 64>
struct AlignedAllocator {
  using value_type = T;
  /// Explicit rebind: the non-type alignment parameter defeats the
  /// allocator_traits auto-rebind detection.
  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }

  template <class U>
  [[nodiscard]] bool operator==(const AlignedAllocator<U, Alignment>&) const {
    return true;
  }
};

template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// Four double lanes in plain C++: the portable twin of V4, with the same
/// API and, per lane, the same correctly rounded step behind each method
/// (std::fma is a single rounding, exactly like vfmadd). An engine
/// instantiated on VS therefore computes the bits of its V4 instantiation.
struct VS {
  std::array<double, 4> lane;

  template <class F>
  static VS each(F f) {
    return {{f(0), f(1), f(2), f(3)}};
  }
  static VS load(const double* p) {
    return each([p](std::size_t i) { return p[i]; });
  }
  static VS broadcast(double x) { return {{x, x, x, x}}; }
  static VS zero() { return broadcast(0.0); }
  void store(double* p) const {
    for (std::size_t i = 0; i < 4; ++i) p[i] = lane[i];
  }
  static VS add(VS a, VS b) {
    return each([&](std::size_t i) { return a.lane[i] + b.lane[i]; });
  }
  static VS sub(VS a, VS b) {
    return each([&](std::size_t i) { return a.lane[i] - b.lane[i]; });
  }
  static VS mul(VS a, VS b) {
    return each([&](std::size_t i) { return a.lane[i] * b.lane[i]; });
  }
  static VS div(VS a, VS b) {
    return each([&](std::size_t i) { return a.lane[i] / b.lane[i]; });
  }
  static VS sqrt(VS a) {
    return each([&](std::size_t i) { return std::sqrt(a.lane[i]); });
  }
  static VS fma(VS a, VS b, VS c) {
    return each([&](std::size_t i) {
      return std::fma(a.lane[i], b.lane[i], c.lane[i]);
    });
  }
  static VS relu(VS x) {
    return each(
        [&](std::size_t i) { return x.lane[i] > 0.0 ? x.lane[i] : 0.0; });
  }
  static VS flush_denormal(VS x) {
    return each([&](std::size_t i) {
      return std::fabs(x.lane[i]) < DBL_MIN ? 0.0 : x.lane[i];
    });
  }
  static VS zero_where_nonpositive(VS x, VS gate) {
    return each(
        [&](std::size_t i) { return gate.lane[i] <= 0.0 ? 0.0 : x.lane[i]; });
  }
};

#if ECOTUNE_SIMD_X86

/// Four double lanes (AVX2). Every method is one vector instruction; all
/// methods carry the avx2 target attribute, so they inline only into
/// functions that carry it too (the kernel entry points in nn/kernels.cpp).
struct V4 {
  __m256d raw;

  ECOTUNE_TARGET_AVX2 static inline V4 load(const double* p) {
    return {_mm256_load_pd(p)};
  }
  ECOTUNE_TARGET_AVX2 static inline V4 broadcast(double x) {
    return {_mm256_set1_pd(x)};
  }
  ECOTUNE_TARGET_AVX2 static inline V4 zero() {
    return {_mm256_setzero_pd()};
  }
  ECOTUNE_TARGET_AVX2 inline void store(double* p) const {
    _mm256_store_pd(p, raw);
  }
  ECOTUNE_TARGET_AVX2 static inline V4 add(V4 a, V4 b) {
    return {_mm256_add_pd(a.raw, b.raw)};
  }
  ECOTUNE_TARGET_AVX2 static inline V4 sub(V4 a, V4 b) {
    return {_mm256_sub_pd(a.raw, b.raw)};
  }
  ECOTUNE_TARGET_AVX2 static inline V4 mul(V4 a, V4 b) {
    return {_mm256_mul_pd(a.raw, b.raw)};
  }
  ECOTUNE_TARGET_AVX2 static inline V4 div(V4 a, V4 b) {
    return {_mm256_div_pd(a.raw, b.raw)};
  }
  ECOTUNE_TARGET_AVX2 static inline V4 sqrt(V4 a) {
    return {_mm256_sqrt_pd(a.raw)};
  }
  /// a*b + c in one correctly-rounded fused operation.
  ECOTUNE_TARGET_AVX2 static inline V4 fma(V4 a, V4 b, V4 c) {
    return {_mm256_fmadd_pd(a.raw, b.raw, c.raw)};
  }
  /// max(x, 0) with x as the first maxpd operand: -0.0 maps to +0.0,
  /// matching std::max(0.0, x).
  ECOTUNE_TARGET_AVX2 static inline V4 relu(V4 x) {
    return {_mm256_max_pd(x.raw, _mm256_setzero_pd())};
  }
  /// Lanes with |x| < DBL_MIN become +0.0 (NaN and normals pass through),
  /// matching VS::flush_denormal bit for bit.
  ECOTUNE_TARGET_AVX2 static inline V4 flush_denormal(V4 x) {
    const __m256d sign = _mm256_set1_pd(-0.0);
    const __m256d tiny = _mm256_set1_pd(2.2250738585072014e-308);
    const __m256d mag = _mm256_andnot_pd(sign, x.raw);
    const __m256d is_denormal = _mm256_cmp_pd(mag, tiny, _CMP_LT_OQ);
    return {_mm256_andnot_pd(is_denormal, x.raw)};
  }
  /// Lanes of x where gate <= 0.0 become +0.0; a NaN gate keeps x (the
  /// comparison is false), matching VS::zero_where_nonpositive.
  ECOTUNE_TARGET_AVX2 static inline V4 zero_where_nonpositive(V4 x, V4 gate) {
    const __m256d nonpos =
        _mm256_cmp_pd(gate.raw, _mm256_setzero_pd(), _CMP_LE_OQ);
    return {_mm256_andnot_pd(nonpos, x.raw)};
  }
};

#endif  // ECOTUNE_SIMD_X86

}  // namespace ecotune::simd
