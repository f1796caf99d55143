#include "ptf/tuner.hpp"

#include <cstdint>

#include "store/serdes.hpp"

namespace ecotune {

Json TuningOutcome::to_json() const {
  Json j = Json::object();
  j["tuner"] = tuner;
  j["objective"] = objective;
  j["best"] = store::to_json(best);
  Json regions = Json::object();
  for (const auto& [region, config] : region_best) {
    regions[region] = store::to_json(config);
  }
  j["region_best"] = regions;
  j["scenarios_evaluated"] = static_cast<std::int64_t>(scenarios_evaluated);
  j["app_runs"] = static_cast<std::int64_t>(app_runs);
  j["tuning_time"] = tuning_time.value();
  j["best_measurement"] = ptf::to_json(best_measurement);
  return j;
}

TuningOutcome TuningOutcome::from_json(std::string_view text) {
  TuningOutcome out;
  JsonReader r(text);
  r.begin_object();
  r.key("app_runs");
  out.app_runs = static_cast<long>(r.number());
  r.key("best");
  out.best = store::read_config(r);
  r.key("best_measurement");
  out.best_measurement = ptf::read_measurement(r);
  r.key("objective");
  out.objective = r.string();
  r.key("region_best");
  r.begin_object();
  for (std::string_view region; r.next_key(region);) {
    std::string name(region);  // the next read may overwrite `region`
    out.region_best.emplace(std::move(name), store::read_config(r));
  }
  r.key("scenarios_evaluated");
  out.scenarios_evaluated = static_cast<long>(r.number());
  r.key("tuner");
  out.tuner = r.string();
  r.key("tuning_time");
  out.tuning_time = Seconds(r.number());
  r.end_object();
  r.end();
  return out;
}

}  // namespace ecotune
