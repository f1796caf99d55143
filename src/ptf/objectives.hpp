#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/units.hpp"

namespace ecotune::ptf {

/// What the experiments engine measured for one scenario (or one region
/// under one scenario).
struct Measurement {
  Joules node_energy{0};
  Joules cpu_energy{0};
  Seconds time{0};
  long count = 0;  ///< number of aggregated instances

  Measurement& operator+=(const Measurement& rhs) {
    node_energy += rhs.node_energy;
    cpu_energy += rhs.cpu_energy;
    time += rhs.time;
    count += rhs.count;
    return *this;
  }
};

/// A single-objective tuning criterion (paper Sec. II: energy, TCO, EDP,
/// ED2P...). Lower is better.
class TuningObjective {
 public:
  virtual ~TuningObjective() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual double evaluate(const Measurement& m) const = 0;
};

/// Node energy (the paper's fundamental tuning objective).
class EnergyObjective final : public TuningObjective {
 public:
  [[nodiscard]] std::string_view name() const override { return "energy"; }
  [[nodiscard]] double evaluate(const Measurement& m) const override {
    return m.node_energy.value();
  }
};

/// CPU (RAPL-domain) energy.
class CpuEnergyObjective final : public TuningObjective {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "cpu_energy";
  }
  [[nodiscard]] double evaluate(const Measurement& m) const override {
    return m.cpu_energy.value();
  }
};

/// Time-to-solution.
class TimeObjective final : public TuningObjective {
 public:
  [[nodiscard]] std::string_view name() const override { return "time"; }
  [[nodiscard]] double evaluate(const Measurement& m) const override {
    return m.time.value();
  }
};

/// Energy-delay product E*T.
class EdpObjective final : public TuningObjective {
 public:
  [[nodiscard]] std::string_view name() const override { return "edp"; }
  [[nodiscard]] double evaluate(const Measurement& m) const override {
    return m.node_energy.value() * m.time.value();
  }
};

/// Energy-delay-squared product E*T^2.
class Ed2pObjective final : public TuningObjective {
 public:
  [[nodiscard]] std::string_view name() const override { return "ed2p"; }
  [[nodiscard]] double evaluate(const Measurement& m) const override {
    return m.node_energy.value() * m.time.value() * m.time.value();
  }
};

/// Total cost of ownership: energy cost plus machine-time cost.
class TcoObjective final : public TuningObjective {
 public:
  /// Defaults: ~0.25 EUR/kWh and a machine-hour rate.
  TcoObjective(double cost_per_joule = 0.25 / 3.6e6,
               double cost_per_second = 0.02 / 3.6e3)
      : cost_per_joule_(cost_per_joule), cost_per_second_(cost_per_second) {}
  [[nodiscard]] std::string_view name() const override { return "tco"; }
  [[nodiscard]] double evaluate(const Measurement& m) const override {
    return cost_per_joule_ * m.node_energy.value() +
           cost_per_second_ * m.time.value();
  }

 private:
  double cost_per_joule_;
  double cost_per_second_;
};

/// Power-capped time-to-solution (Cuttlefish-style, PAPERS.md): score is the
/// run time plus a hard-cap penalty proportional to how far the mean power
/// draw exceeds `cap`. At or under the cap the penalty is exactly zero, so
/// the objective degenerates to plain time; above it each fractional watt of
/// excess costs `weight` x (excess/cap) extra seconds per second of runtime.
/// A zero-time measurement has no defined mean power and scores 0.
class PowerCapObjective final : public TuningObjective {
 public:
  explicit PowerCapObjective(double cap_watts = kDefaultCapWatts,
                             double weight = kDefaultWeight);
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] double evaluate(const Measurement& m) const override;

  static constexpr double kDefaultCapWatts = 300.0;
  static constexpr double kDefaultWeight = 10.0;

 private:
  double cap_watts_;
  double weight_;
  std::string name_;
};

/// Energy-budget variant of the cap family: score is run time plus a penalty
/// proportional to how far total node energy exceeds `budget` joules. The
/// penalty is additive (not time-scaled) so an over-budget measurement is
/// penalized even as its time approaches zero.
class EnergyBudgetObjective final : public TuningObjective {
 public:
  explicit EnergyBudgetObjective(double budget_joules = kDefaultBudgetJoules,
                                 double weight = kDefaultWeight);
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] double evaluate(const Measurement& m) const override;

  static constexpr double kDefaultBudgetJoules = 10000.0;
  static constexpr double kDefaultWeight = 10.0;

 private:
  double budget_joules_;
  double weight_;
  std::string name_;
};

/// Factory by name ("energy", "cpu_energy", "time", "edp", "ed2p", "tco",
/// "power_cap", "energy_budget"). The cap family also accepts a parameterized
/// spelling: "power_cap:250" caps at 250 W, "energy_budget:5000" budgets
/// 5000 J. Throws ConfigError on unknown names or malformed parameters.
[[nodiscard]] std::unique_ptr<TuningObjective> make_objective(
    std::string_view name);

/// The base spellings make_objective accepts, sorted, for CLI diagnostics.
[[nodiscard]] const std::vector<std::string>& objective_names();

/// Comma-separated objective_names(), for one-line CLI diagnostics.
[[nodiscard]] std::string objective_names_joined();

/// JSON round trip of a Measurement for the measurement store. Doubles
/// survive bit-exactly (Json serializes via std::to_chars), so replayed
/// measurements are indistinguishable from freshly simulated ones.
/// read_measurement reads the object to_json wrote, keys in sorted order,
/// straight from a stored payload's bytes.
[[nodiscard]] Json to_json(const Measurement& m);
[[nodiscard]] Measurement read_measurement(JsonReader& r);

}  // namespace ecotune::ptf
