#pragma once

#include "common/config.hpp"
#include "common/json.hpp"

namespace ecotune::store {

/// JSON (de)serialization of the common value types measurement consumers
/// cache. Doubles survive the round trip bit-exactly (Json emits them via
/// std::to_chars and parses via std::from_chars), which is what lets a warm
/// store replay produce byte-identical driver output. Consumer-owned types
/// serialize in their own modules (ptf::Measurement in ptf/objectives,
/// core::DtaResult/SavingsRow in core/dta_serdes) so the store stays a
/// common-only base layer.

[[nodiscard]] Json to_json(const SystemConfig& c);
[[nodiscard]] SystemConfig config_from_json(const Json& j);
/// Reads the object to_json(SystemConfig) wrote, keys in sorted order.
[[nodiscard]] SystemConfig read_config(JsonReader& r);

}  // namespace ecotune::store
