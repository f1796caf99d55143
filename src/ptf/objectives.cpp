#include "ptf/objectives.hpp"

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/numbers.hpp"

namespace ecotune::ptf {
namespace {

// Stringify a cap/budget parameter the way Json does (to_chars shortest
// form), so parameterized names round-trip: make_objective(o->name())
// reconstructs an equivalent objective.
std::string format_parameter(double value) {
  Json j = value;
  return j.dump();
}

// Parses the "<value>" part of "power_cap:<value>" / "energy_budget:<value>".
double parse_cap_parameter(std::string_view family, std::string_view text) {
  double value = 0.0;
  if (!parse_double(text, value) || !(value > 0.0)) {
    throw ConfigError("make_objective: bad parameter '" + std::string(text) +
                      "' for objective family '" + std::string(family) +
                      "' (want a positive number)");
  }
  return value;
}

}  // namespace

PowerCapObjective::PowerCapObjective(double cap_watts, double weight)
    : cap_watts_(cap_watts),
      weight_(weight),
      name_("power_cap:" + format_parameter(cap_watts)) {
  ECOTUNE_CHECK(cap_watts > 0.0, "PowerCapObjective: cap must be positive");
}

double PowerCapObjective::evaluate(const Measurement& m) const {
  const double time = m.time.value();
  if (time <= 0.0) return 0.0;  // no runtime: mean power is undefined
  const double mean_power = m.node_energy.value() / time;
  const double excess = mean_power > cap_watts_ ? mean_power - cap_watts_ : 0.0;
  return time + weight_ * (excess / cap_watts_) * time;
}

EnergyBudgetObjective::EnergyBudgetObjective(double budget_joules,
                                             double weight)
    : budget_joules_(budget_joules),
      weight_(weight),
      name_("energy_budget:" + format_parameter(budget_joules)) {
  ECOTUNE_CHECK(budget_joules > 0.0,
                "EnergyBudgetObjective: budget must be positive");
}

double EnergyBudgetObjective::evaluate(const Measurement& m) const {
  const double energy = m.node_energy.value();
  const double excess =
      energy > budget_joules_ ? energy - budget_joules_ : 0.0;
  return m.time.value() + weight_ * (excess / budget_joules_);
}

std::unique_ptr<TuningObjective> make_objective(std::string_view name) {
  if (name == "energy") return std::make_unique<EnergyObjective>();
  if (name == "cpu_energy") return std::make_unique<CpuEnergyObjective>();
  if (name == "time") return std::make_unique<TimeObjective>();
  if (name == "edp") return std::make_unique<EdpObjective>();
  if (name == "ed2p") return std::make_unique<Ed2pObjective>();
  if (name == "tco") return std::make_unique<TcoObjective>();
  if (name == "power_cap") return std::make_unique<PowerCapObjective>();
  if (name == "energy_budget") {
    return std::make_unique<EnergyBudgetObjective>();
  }
  if (const auto colon = name.find(':'); colon != std::string_view::npos) {
    const std::string_view family = name.substr(0, colon);
    const std::string_view parameter = name.substr(colon + 1);
    if (family == "power_cap") {
      return std::make_unique<PowerCapObjective>(
          parse_cap_parameter(family, parameter));
    }
    if (family == "energy_budget") {
      return std::make_unique<EnergyBudgetObjective>(
          parse_cap_parameter(family, parameter));
    }
  }
  throw ConfigError("make_objective: unknown objective '" +
                    std::string(name) + "'");
}

const std::vector<std::string>& objective_names() {
  static const std::vector<std::string> kNames = {
      "cpu_energy", "ed2p",      "edp", "energy", "energy_budget",
      "power_cap",  "tco", "time"};
  return kNames;
}

std::string objective_names_joined() {
  std::string joined;
  for (const auto& name : objective_names()) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

Json to_json(const Measurement& m) {
  Json j = Json::object();
  j["node_energy"] = m.node_energy.value();
  j["cpu_energy"] = m.cpu_energy.value();
  j["time"] = m.time.value();
  j["count"] = static_cast<std::int64_t>(m.count);
  return j;
}

Measurement read_measurement(JsonReader& r) {
  Measurement m;
  r.begin_object();
  r.key("count");
  m.count = static_cast<long>(r.number());
  r.key("cpu_energy");
  m.cpu_energy = Joules(r.number());
  r.key("node_energy");
  m.node_energy = Joules(r.number());
  r.key("time");
  m.time = Seconds(r.number());
  r.end_object();
  return m;
}

}  // namespace ecotune::ptf
