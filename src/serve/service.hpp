#pragma once

#include <atomic>
#include <cstddef>
#include <string>

#include "api/session.hpp"
#include "common/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service_stats.hpp"

namespace ecotune::serve {

/// Configuration of one TuningService instance.
struct ServiceConfig {
  /// The shared Session every tenant's requests run against (one trained
  /// model, one measurement store). scope defaults to "serve" when empty so
  /// daemon entries never cross-invalidate driver entries in a shared
  /// cache directory.
  api::SessionConfig session;
  /// Concurrent request workers (0 = hardware concurrency).
  int workers = 0;
  /// Bound on queued-but-unclaimed requests; one more arriving is answered
  /// with an "overloaded" error immediately (backpressure, never deadlock).
  std::size_t queue_limit = 256;
  /// Queue-wait deadline applied when a request carries no timeout_ms.
  double default_timeout_ms = 30000;
  /// Per-frame byte ceiling on the wire.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Enables the test-only "sleep" method (deterministic queue pressure in
  /// the backpressure tests); production daemons leave this off.
  bool enable_debug_methods = false;
};

/// The transport-independent core of ecotune_serve: owns the shared
/// api::Session (the constructor trains its model, so the model trains
/// exactly once, before any request) and dispatches one decoded request
/// frame per handle() call.
///
/// Concurrency & determinism contract: handle() is safe to call from many
/// threads at once. Every compute method is a keyed Session call under the
/// key "serve-<request key>", and the request key is derived purely from
/// (tenant, method, params) -- so a response is
/// a pure function of the request and the service configuration, bitwise
/// identical whether it is served concurrently, serially, or after a
/// restart (warm restarts replay whole results from the measurement
/// store). The "stats" method is the deliberate exception: it reports live
/// counters and wall-clock quantiles.
///
/// Methods: ping, methods, predict, tune, dta, evaluate, stats (and sleep
/// when enable_debug_methods). handle() never throws -- every failure maps
/// to an error response (bad_request, unknown_method, internal).
class TuningService {
 public:
  explicit TuningService(ServiceConfig config);

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Dispatches one decoded request frame and returns the response frame.
  [[nodiscard]] Json handle(const Json& frame);

  /// The stable request key handle() derives for a request without an
  /// explicit params["key"]: "<tenant>/<method>/<fnv-hex of canonical
  /// params>". Exposed so tests can address the same store entries.
  [[nodiscard]] static std::string request_key(const RpcRequest& req);

  [[nodiscard]] api::Session& session() { return session_; }
  [[nodiscard]] ServiceStats& stats() { return stats_; }
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

  /// Queue-depth gauge surfaced by the "stats" method; the socket server
  /// maintains it (enqueue/dequeue), a transportless service leaves it 0.
  void set_queue_depth(long depth) { queue_depth_.store(depth); }
  [[nodiscard]] long queue_depth() const { return queue_depth_.load(); }

 private:
  [[nodiscard]] Json dispatch(const RpcRequest& req);

  ServiceConfig config_;
  api::Session session_;
  ServiceStats stats_;
  std::atomic<long> queue_depth_{0};
};

}  // namespace ecotune::serve
