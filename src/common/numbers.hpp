#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace ecotune {

/// Locale-independent strict double parse: the whole of `text` must be a
/// number (std::from_chars general format; no leading whitespace, no
/// trailing junk). This is the wrapper the determinism lint points callers
/// at instead of std::strtod / std::stod, both of which honor the process
/// locale's decimal point and so can parse "1.5" differently under e.g.
/// LC_NUMERIC=de_DE.
[[nodiscard]] inline bool parse_double(std::string_view text, double& out) {
  const char* first = text.data();
  const char* last = first + text.size();
  double value{};
  const auto res = std::from_chars(first, last, value);
  if (res.ec != std::errc() || res.ptr != last) return false;
  out = value;
  return true;
}

/// Locale-independent strict integer parse (base 10, whole-string). The
/// counterpart of parse_double for integer-keyed payloads; CLI flags with
/// user-facing errors go through common/cli parse_strict_int instead.
template <class T>
[[nodiscard]] bool parse_int(std::string_view text, T& out) {
  T value{};
  const auto res =
      std::from_chars(text.data(), text.data() + text.size(), value, 10);
  if (res.ec != std::errc() || res.ptr != text.data() + text.size())
    return false;
  out = value;
  return true;
}

}  // namespace ecotune
