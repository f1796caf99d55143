#pragma once

#include <exception>
#include <string>
#include <utility>

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/units.hpp"
#include "store/measurement_store.hpp"

namespace ecotune::store {

/// The whole-result cache of one keyed row (a DTA report, a savings row):
/// a single store entry `{<field>: result.to_json(), "elapsed": seconds}`
/// under `task`.
///
/// With `store` enabled, `fingerprint()` (everything the result depends on)
/// is looked up and a hit is decoded with `T::from_json`; a payload that
/// does not decode is logged and recomputed. Otherwise `compute()` runs --
/// it returns the result and the simulated time it consumed -- and, with
/// the store enabled, its result is inserted. `fingerprint` is never called
/// with the store disabled.
template <class T, class FingerprintFn, class ComputeFn>
T cached_row(MeasurementStore* store, const std::string& task,
             const std::string& field, FingerprintFn&& fingerprint,
             ComputeFn&& compute) {
  const bool enabled = store != nullptr && store->enabled();
  MeasurementKey key;
  if (enabled) {
    key.task = task;
    key.fingerprint = fingerprint();
    if (const auto hit = store->lookup(key)) {
      try {
        return T::from_json(hit->at(field));
      } catch (const std::exception& e) {
        log::error("store") << "undecodable cache payload for '" << task
                            << "' (" << e.what() << "); recomputing";
      }
    }
  }
  std::pair<T, Seconds> computed = compute();
  if (enabled) {
    Json payload = Json::object();
    payload[field] = computed.first.to_json();
    // Unread here; keeps the payload readable by older builds.
    payload["elapsed"] = computed.second.value();
    store->insert(key, payload);
  }
  return std::move(computed.first);
}

}  // namespace ecotune::store
