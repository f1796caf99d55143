#include <gtest/gtest.h>

#include <sstream>

#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"

namespace ecotune {
namespace {

TEST(TextTable, AlignsColumnsAndPrintsHeader) {
  TextTable t("Title");
  t.header({"name", "value"});
  t.row({"x", "1"});
  t.row({"longer-name", "22"});
  const std::string out = t.str();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("| longer-name |"), std::string::npos);
  // All rendered table lines have the same width.
  std::istringstream is(out);
  std::string line;
  std::getline(is, line);  // title
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TextTable, HandlesShortRowsAndSeparators) {
  TextTable t;
  t.header({"a", "b", "c"});
  t.row({"only-one"});
  t.separator();
  t.row({"1", "2", "3"});
  const std::string out = t.str();
  EXPECT_NE(out.find("only-one"), std::string::npos);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(-1.0, 0), "-1");
  EXPECT_EQ(TextTable::pct(5.2, 1), "+5.2%");
  EXPECT_EQ(TextTable::pct(-7.83, 2), "-7.83%");
}

TEST(Logging, RespectsLevelAndSink) {
  std::ostringstream sink;
  log::set_sink(&sink);
  log::set_level(log::Level::kWarn);
  log::info("test") << "hidden";
  log::warn("test") << "visible " << 42;
  log::set_sink(nullptr);
  log::set_level(log::Level::kWarn);
  EXPECT_EQ(sink.str().find("hidden"), std::string::npos);
  EXPECT_NE(sink.str().find("visible 42"), std::string::npos);
  EXPECT_NE(sink.str().find("[WARN]"), std::string::npos);
}

/// Counts how often a log line formats it.
struct FormatCounter {
  int* formatted;
};
std::ostream& operator<<(std::ostream& os, const FormatCounter& c) {
  ++*c.formatted;
  return os << "counted";
}

TEST(Logging, FilteredLineFormatsNothingAndEmittedLineAppearsOnce) {
  std::ostringstream sink;
  log::set_sink(&sink);
  log::set_level(log::Level::kWarn);
  int formatted = 0;
  log::debug("test") << "hidden " << FormatCounter{&formatted};
  EXPECT_EQ(formatted, 0);
  EXPECT_EQ(sink.str(), "");
  log::error("test") << "shown " << FormatCounter{&formatted} << ' ' << 7;
  log::set_sink(nullptr);
  EXPECT_EQ(formatted, 1);
  EXPECT_EQ(sink.str(), "[ERROR] [test] shown counted 7\n");
}

TEST(SystemConfig, EqualityAndFormatting) {
  SystemConfig a{24, CoreFreq::mhz(2500), UncoreFreq::mhz(3000)};
  SystemConfig b = a;
  EXPECT_EQ(a, b);
  b.threads = 12;
  EXPECT_NE(a, b);
  EXPECT_EQ(to_string(a), "24 thr, 2.5GHz|3.0GHz");
}

}  // namespace
}  // namespace ecotune
