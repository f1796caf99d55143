#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace ecotune {

/// Formats a plain-text table with aligned columns; used by the benchmark
/// harnesses to print paper tables.
class TextTable {
 public:
  /// Creates a table with the given title (printed above, may be empty).
  explicit TextTable(std::string title = {});

  /// Sets the header row.
  TextTable& header(std::vector<std::string> cells);
  /// Appends a data row; rows may have fewer cells than the header.
  TextTable& row(std::vector<std::string> cells);
  /// Appends a horizontal separator at this position.
  TextTable& separator();

  /// Renders the table.
  void print(std::ostream& os) const;

  /// Formats a double with `digits` decimal places.
  [[nodiscard]] static std::string num(double v, int digits = 2);
  /// Formats a percentage (value already in percent) with sign.
  [[nodiscard]] static std::string pct(double v, int digits = 2);

 private:
  std::string title_;
  std::vector<std::string> header_;
  // Rows; an empty optional-like sentinel row (single cell "\x01") marks a
  // separator.
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ecotune
