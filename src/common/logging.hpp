#pragma once

#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

namespace ecotune::log {

/// Log severities, ordered.
enum class Level { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Sets the global minimum severity that is emitted.
void set_level(Level level);

/// Current global minimum severity.
[[nodiscard]] Level level();

/// Redirects log output (default: std::clog). Pass nullptr to restore.
void set_sink(std::ostream* sink);

namespace detail {
void emit(Level level, std::string_view component, const std::string& message);
}

/// RAII log line: streams into a buffer, emits on destruction.
/// Usage: log::Line(log::Level::kInfo, "hwsim") << "freq=" << f;
/// The level is checked once, at construction: a filtered line has no
/// buffer, formats none of its operands and costs one compare.
class Line {
 public:
  Line(Level level, std::string_view component)
      : level_(level), component_(component) {
    if (level_ >= log::level()) buf_.emplace();
  }
  Line(const Line&) = delete;
  Line& operator=(const Line&) = delete;
  ~Line() {
    if (buf_) detail::emit(level_, component_, buf_->str());
  }

  template <class T>
  Line& operator<<(const T& v) {
    if (buf_) *buf_ << v;
    return *this;
  }

 private:
  Level level_;
  std::string_view component_;
  std::optional<std::ostringstream> buf_;
};

inline Line trace(std::string_view component) {
  return Line(Level::kTrace, component);
}
inline Line debug(std::string_view component) {
  return Line(Level::kDebug, component);
}
inline Line info(std::string_view component) {
  return Line(Level::kInfo, component);
}
inline Line warn(std::string_view component) {
  return Line(Level::kWarn, component);
}
inline Line error(std::string_view component) {
  return Line(Level::kError, component);
}

}  // namespace ecotune::log
