#include "core/plugin_config.hpp"

namespace ecotune::core {

Json PluginConfig::to_json() const {
  Json j = Json::object();
  j["phase_region"] = phase_region;
  j["significance_threshold_ms"] = significance_threshold.value() * 1e3;
  j["autofilter_granularity_ms"] = autofilter_granularity.value() * 1e3;
  j["omp_lower"] = omp_lower;
  j["omp_step"] = omp_step;
  j["neighborhood_radius"] = neighborhood_radius;
  j["objective"] = objective;
  j["per_region_prediction"] = per_region_prediction;
  return j;
}

}  // namespace ecotune::core
