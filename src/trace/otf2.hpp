#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace ecotune::trace {

/// Trace record kinds (subset of OTF2 event records we need).
enum class RecordType : std::uint8_t { kEnter = 0, kExit = 1, kMetric = 2 };

/// One chronological trace record. Metric records are associated with the
/// enclosing enter/exit position, as Score-P writes them (paper Sec. IV-A:
/// "performance metrics and energy values are recorded only at entry and
/// exit of a region").
struct TraceRecord {
  RecordType type = RecordType::kEnter;
  double timestamp = 0.0;  ///< seconds since trace start
  std::uint32_t id = 0;    ///< region id (enter/exit) or metric id (metric)
  double value = 0.0;      ///< metric value; unused otherwise
};

/// An OTF2-style trace archive: definitions (region/metric name tables) plus
/// a chronologically ordered record stream, serializable to a compact binary
/// file.
class Otf2Archive {
 public:
  /// Interns a region name, returning its id.
  std::uint32_t define_region(const std::string& name);
  /// Interns a metric name, returning its id.
  std::uint32_t define_metric(const std::string& name);

  /// Appends records; timestamps must be monotonically non-decreasing.
  void enter(Seconds t, std::uint32_t region);
  void exit(Seconds t, std::uint32_t region);
  void metric(Seconds t, std::uint32_t metric, double value);

  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }
  [[nodiscard]] const std::vector<std::string>& region_names() const {
    return region_names_;
  }
  [[nodiscard]] const std::vector<std::string>& metric_names() const {
    return metric_names_;
  }
  [[nodiscard]] const std::string& region_name(std::uint32_t id) const;
  [[nodiscard]] const std::string& metric_name(std::uint32_t id) const;
  /// Id of a previously defined region; throws if unknown.
  [[nodiscard]] std::uint32_t region_id(const std::string& name) const;
  [[nodiscard]] bool has_region(const std::string& name) const {
    return region_ids_.count(name) > 0;
  }

  /// Serializes to the ecotune binary trace format.
  void save(const std::string& path) const;
  /// Loads an archive written by save(); throws Error on malformed input.
  [[nodiscard]] static Otf2Archive load(const std::string& path);

 private:
  void append(TraceRecord r);
  std::vector<std::string> region_names_;
  std::map<std::string, std::uint32_t> region_ids_;
  std::vector<std::string> metric_names_;
  std::map<std::string, std::uint32_t> metric_ids_;
  std::vector<TraceRecord> records_;
  double last_timestamp_ = 0.0;
};

}  // namespace ecotune::trace
