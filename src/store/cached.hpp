#pragma once

#include <exception>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/logging.hpp"
#include "store/measurement_store.hpp"

namespace ecotune::store {

/// The task name of a keyed entry: `<kind>/<app>[/<scope>]/<key>`. `scope`
/// (empty for none) keeps callers that share a store and an app -- rows
/// tuned concurrently, drivers stepping one engine -- on disjoint names.
[[nodiscard]] inline std::string scoped_task(std::string_view kind,
                                             std::string_view app,
                                             std::string_view scope,
                                             std::string_view key) {
  std::string task;
  task.reserve(kind.size() + app.size() + scope.size() + key.size() + 3);
  task.append(kind).append("/").append(app);
  if (!scope.empty()) task.append("/").append(scope);
  task.append("/").append(key);
  return task;
}

/// The one protocol of a cached measurement: the entry `task` holds what
/// `compute()` returns, identified by `fingerprint()` (everything the value
/// depends on).
///
/// With `store` null or disabled, this is `compute()` and `fingerprint` is
/// never called. Otherwise a hit is decoded from the payload bytes with
/// `decode(std::string_view)`. A payload that does not decode (another
/// schema, a truncated sweep -- the decoder throws) is logged once and
/// recomputed, never returned half-read; a miss is computed too, and the
/// value `encode(const T&)` renders is inserted. What `compute` throws
/// propagates.
template <class FingerprintFn, class DecodeFn, class ComputeFn,
          class EncodeFn>
std::invoke_result_t<ComputeFn&> cached(MeasurementStore* store,
                                        std::string task,
                                        FingerprintFn&& fingerprint,
                                        DecodeFn&& decode, ComputeFn&& compute,
                                        EncodeFn&& encode) {
  if (store == nullptr || !store->enabled()) return compute();
  const MeasurementKey key{std::move(task), fingerprint()};
  if (const auto hit = store->lookup(key)) {
    try {
      return decode(*hit);
    } catch (const std::exception& e) {
      log::error("store") << "undecodable cache payload for '" << key.task
                          << "' (" << e.what() << "); recomputing";
    }
  }
  std::invoke_result_t<ComputeFn&> value = compute();
  store->insert(key, encode(std::as_const(value)));
  return value;
}

}  // namespace ecotune::store
