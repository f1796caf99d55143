#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"

namespace ecotune::readex {

/// One scenario of the tuning model: a best-found configuration shared by
/// all regions the classifier maps to it (the System-Scenario methodology of
/// paper Sec. I/III-D).
struct TmScenario {
  int id = 0;
  SystemConfig config;
  std::vector<std::string> regions;
};

/// The READEX tuning model: the design-time analysis product consumed by the
/// RRL at production time. Regions with identical best configurations are
/// grouped into scenarios to avoid needless dynamic switching.
class TuningModel {
 public:
  /// Registers a region with its best-found configuration; regions with the
  /// same configuration share one scenario.
  void add_region(const std::string& region, const SystemConfig& config);

  /// Scenario lookup through the classifier; nullopt for unknown regions.
  [[nodiscard]] std::optional<SystemConfig> lookup(
      const std::string& region) const;
  /// Scenario id for a region; -1 when unknown.
  [[nodiscard]] int scenario_id(const std::string& region) const;

  [[nodiscard]] const std::vector<TmScenario>& scenarios() const {
    return scenarios_;
  }
  [[nodiscard]] std::size_t region_count() const { return classifier_.size(); }

  /// JSON serialization (the file RRL loads via SCOREP_RRL_TMM_PATH).
  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static TuningModel from_json(const Json& j);
  void save(const std::string& path) const;
  [[nodiscard]] static TuningModel load(const std::string& path);

 private:
  std::vector<TmScenario> scenarios_;
  /// The classifier: maps each region onto a unique scenario (paper
  /// Sec. III-D).
  std::map<std::string, int> classifier_;
};

}  // namespace ecotune::readex
