#include "readex/tuning_model.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace ecotune::readex {

void TuningModel::add_region(const std::string& region,
                             const SystemConfig& config) {
  ensure(!classifier_.contains(region),
         "TuningModel::add_region: region '" + region + "' already present");
  // Group: reuse the scenario with an identical configuration if any.
  auto it = std::find_if(scenarios_.begin(), scenarios_.end(),
                         [&](const TmScenario& s) {
                           return s.config == config;
                         });
  if (it == scenarios_.end()) {
    TmScenario s;
    s.id = static_cast<int>(scenarios_.size());
    s.config = config;
    scenarios_.push_back(std::move(s));
    it = std::prev(scenarios_.end());
  }
  it->regions.push_back(region);
  classifier_.emplace(region, it->id);
}

std::optional<SystemConfig> TuningModel::lookup(
    const std::string& region) const {
  auto it = classifier_.find(region);
  if (it == classifier_.end()) return std::nullopt;
  return scenarios_[static_cast<std::size_t>(it->second)].config;
}

int TuningModel::scenario_id(const std::string& region) const {
  auto it = classifier_.find(region);
  return it == classifier_.end() ? -1 : it->second;
}

Json TuningModel::to_json() const {
  Json j = Json::object();
  Json scenarios = Json::array();
  for (const auto& s : scenarios_) {
    Json sj = Json::object();
    sj["id"] = s.id;
    sj["threads"] = s.config.threads;
    sj["core_freq_mhz"] = s.config.core.as_mhz();
    sj["uncore_freq_mhz"] = s.config.uncore.as_mhz();
    Json regions = Json::array();
    for (const auto& r : s.regions) regions.push_back(r);
    sj["regions"] = std::move(regions);
    scenarios.push_back(std::move(sj));
  }
  j["scenarios"] = std::move(scenarios);
  return j;
}

TuningModel TuningModel::from_json(const Json& j) {
  TuningModel m;
  for (const auto& sj : j.at("scenarios").as_array()) {
    SystemConfig c;
    c.threads = sj.at("threads").as_int();
    c.core = CoreFreq::mhz(sj.at("core_freq_mhz").as_int());
    c.uncore = UncoreFreq::mhz(sj.at("uncore_freq_mhz").as_int());
    for (const auto& r : sj.at("regions").as_array())
      m.add_region(r.as_string(), c);
  }
  return m;
}

void TuningModel::save(const std::string& path) const {
  std::ofstream os(path);
  ensure(os.good(), "TuningModel::save: cannot open '" + path + "'");
  os << to_json().dump(2) << '\n';
  ensure(os.good(), "TuningModel::save: write failed");
}

TuningModel TuningModel::load(const std::string& path) {
  std::ifstream is(path);
  ensure(is.good(), "TuningModel::load: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << is.rdbuf();
  return from_json(Json::parse(buf.str()));
}

}  // namespace ecotune::readex
