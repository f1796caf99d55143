#include "store/serdes.hpp"

namespace ecotune::store {

Json to_json(const SystemConfig& c) {
  Json j = Json::object();
  j["threads"] = c.threads;
  j["cf_mhz"] = c.core.as_mhz();
  j["ucf_mhz"] = c.uncore.as_mhz();
  return j;
}

SystemConfig config_from_json(const Json& j) {
  return SystemConfig{j.at("threads").as_int(),
                      CoreFreq::mhz(j.at("cf_mhz").as_int()),
                      UncoreFreq::mhz(j.at("ucf_mhz").as_int())};
}

SystemConfig read_config(JsonReader& r) {
  SystemConfig c;
  r.begin_object();
  r.key("cf_mhz");
  c.core = CoreFreq::mhz(static_cast<int>(r.number()));
  r.key("threads");
  c.threads = static_cast<int>(r.number());
  r.key("ucf_mhz");
  c.uncore = UncoreFreq::mhz(static_cast<int>(r.number()));
  r.end_object();
  return c;
}

}  // namespace ecotune::store
