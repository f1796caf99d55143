#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"

namespace perfbench {

/// Request classes of the serve_mix workload.
enum class RequestClass : std::size_t {
  kPredict = 0,  ///< predict on a jittered 7-counter signature
  kDtaHit,       ///< dta from the hot set (19 benchmarks x 3 tenants)
  kDtaFresh,     ///< dta with a fresh params.key (store misses + appends)
  kTuneFresh,    ///< tune with a fresh key: qlearn/ondemand/conservative/dta
  kStaticHit,    ///< tune static from the hot set (~1008 store lookups)
};
inline constexpr std::size_t kClassCount = 5;
inline constexpr std::array<const char*, kClassCount> kClassNames = {
    "predict", "dta_hit", "dta_fresh", "tune_fresh", "static_hit"};
/// Target share of each class, by request count.
inline constexpr std::array<double, kClassCount> kClassShares = {
    0.50, 0.25, 0.10, 0.10, 0.05};

/// Tenants of the hot set.
inline constexpr int kTenants = 3;

struct MixRequest {
  RequestClass cls = RequestClass::kPredict;
  ecotune::Json frame;  ///< the ecotune.rpc.v1 request, "id" included
  /// For hot-set classes: identifies the request up to its id, so every
  /// answer can be compared with the first one.
  std::string hot_key;
};

/// Seeded generator of the serve_mix request sequence: the i-th request
/// depends only on the seed and the base signatures.
class MixGenerator {
 public:
  /// `signatures` are counter-name -> rate maps predict requests jitter
  /// (each rate scaled by a uniform factor in [0.95, 1.05]).
  MixGenerator(std::uint64_t seed,
               std::vector<std::map<std::string, double>> signatures);

  [[nodiscard]] MixRequest next();

  /// Every hot-set request once (dta hot set, then the static hot set), for
  /// priming the store and recording first answers.
  [[nodiscard]] std::vector<MixRequest> hot_set();

 private:
  [[nodiscard]] MixRequest make(RequestClass cls, const std::string& tenant,
                                ecotune::Json params);

  std::uint64_t seed_;
  std::vector<std::map<std::string, double>> signatures_;
  ecotune::Rng rng_;
  std::vector<std::string> benchmarks_;
  long next_id_ = 0;
  long fresh_ = 0;
};

/// Closed-loop bookkeeping of the load generator: at most one request in
/// flight per connection and never more than `queue_limit` in total. A
/// violation throws std::logic_error.
class ClosedLoop {
 public:
  ClosedLoop(std::size_t connections, std::size_t queue_limit);

  void on_send(std::size_t conn);
  void on_reply(std::size_t conn);

  [[nodiscard]] bool busy(std::size_t conn) const { return busy_.at(conn); }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }

 private:
  std::vector<bool> busy_;
  std::size_t queue_limit_;
  std::size_t in_flight_ = 0;
};

}  // namespace perfbench
