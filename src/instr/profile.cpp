#include "instr/profile.hpp"

#include <algorithm>

namespace ecotune::instr {

void CallTreeProfile::add_sample(const RegionExit& e) {
  const std::string key(e.region);
  auto it = stats_.find(key);
  if (it == stats_.end()) {
    RegionStats s;
    s.name = key;
    s.type = e.type;
    s.min_time = e.duration();
    s.max_time = e.duration();
    it = stats_.emplace(key, std::move(s)).first;
    order_.push_back(key);
  }
  RegionStats& s = it->second;
  ++s.count;
  s.total_time += e.duration();
  s.total_node_energy += e.node_energy;
  s.min_time = std::min(s.min_time, e.duration());
  s.max_time = std::max(s.max_time, e.duration());
}

std::vector<RegionStats> CallTreeProfile::all() const {
  std::vector<RegionStats> out;
  out.reserve(order_.size());
  for (const auto& name : order_) out.push_back(stats_.at(name));
  return out;
}

Seconds CallTreeProfile::phase_time() const {
  for (const auto& [name, s] : stats_)
    if (s.type == RegionType::kPhase) return s.total_time;
  return Seconds(0);
}

long CallTreeProfile::phase_count() const {
  for (const auto& [name, s] : stats_)
    if (s.type == RegionType::kPhase) return s.count;
  return 0;
}

}  // namespace ecotune::instr
