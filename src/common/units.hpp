#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <sstream>
#include <string>

namespace ecotune {

/// Strongly typed scalar quantity. `Tag` distinguishes incompatible units at
/// compile time so that, e.g., seconds cannot be added to joules.
template <class Tag>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double value) : value_(value) {}

  /// Underlying value in the unit's base (J, s, W, ...).
  [[nodiscard]] constexpr double value() const { return value_; }

  constexpr Quantity& operator+=(Quantity rhs) {
    value_ += rhs.value_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity rhs) {
    value_ -= rhs.value_;
    return *this;
  }
  constexpr Quantity& operator*=(double s) {
    value_ *= s;
    return *this;
  }
  constexpr Quantity& operator/=(double s) {
    value_ /= s;
    return *this;
  }

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity(a.value_ + b.value_);
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity(a.value_ - b.value_);
  }
  friend constexpr Quantity operator*(Quantity a, double s) {
    return Quantity(a.value_ * s);
  }
  friend constexpr Quantity operator*(double s, Quantity a) {
    return Quantity(a.value_ * s);
  }
  friend constexpr Quantity operator/(Quantity a, double s) {
    return Quantity(a.value_ / s);
  }
  /// Dimensionless ratio of two like quantities.
  friend constexpr double operator/(Quantity a, Quantity b) {
    return a.value_ / b.value_;
  }
  friend constexpr auto operator<=>(Quantity a, Quantity b) = default;

  friend std::ostream& operator<<(std::ostream& os, Quantity q) {
    return os << q.value_;
  }

 private:
  double value_{0.0};
};

using Joules = Quantity<struct JouleTag>;    ///< Energy in joules.
using Seconds = Quantity<struct SecondTag>;  ///< Time in seconds.
using Watts = Quantity<struct WattTag>;      ///< Power in watts.
using Bytes = Quantity<struct ByteTag>;      ///< Data volume in bytes.

/// Energy = power x time.
constexpr Joules operator*(Watts p, Seconds t) {
  return Joules(p.value() * t.value());
}

/// Strongly typed frequency, stored in MHz to keep grid arithmetic exact.
/// `Tag` separates the core (DVFS) and uncore (UFS) frequency domains.
template <class Tag>
class FreqT {
 public:
  constexpr FreqT() = default;

  /// Constructs from a MHz count (exact).
  [[nodiscard]] static constexpr FreqT mhz(int m) { return FreqT(m); }
  /// Constructs from GHz, rounded to the nearest MHz.
  [[nodiscard]] static constexpr FreqT ghz(double g) {
    return FreqT(static_cast<int>(g * 1000.0 + (g >= 0 ? 0.5 : -0.5)));
  }

  [[nodiscard]] constexpr int as_mhz() const { return mhz_; }
  [[nodiscard]] constexpr double as_ghz() const { return mhz_ / 1000.0; }
  [[nodiscard]] constexpr double as_hz() const { return mhz_ * 1e6; }

  /// True for any frequency actually set (0 MHz means "unset").
  [[nodiscard]] constexpr bool valid() const { return mhz_ > 0; }

  friend constexpr auto operator<=>(FreqT a, FreqT b) = default;

  friend std::ostream& operator<<(std::ostream& os, FreqT f) {
    const int whole = f.mhz_ / 1000;
    const int frac = (f.mhz_ % 1000) / 100;
    return os << whole << '.' << frac << "GHz";
  }

 private:
  constexpr explicit FreqT(int m) : mhz_(m) {}
  int mhz_{0};
};

using CoreFreq = FreqT<struct CoreFreqTag>;      ///< Per-core DVFS frequency.
using UncoreFreq = FreqT<struct UncoreFreqTag>;  ///< Per-socket UFS frequency.

/// "2.4GHz"-style display string.
template <class Tag>
[[nodiscard]] std::string to_string(FreqT<Tag> f) {
  std::ostringstream os;
  os << f;
  return os.str();
}

}  // namespace ecotune

template <class Tag>
struct std::hash<ecotune::FreqT<Tag>> {
  std::size_t operator()(ecotune::FreqT<Tag> f) const noexcept {
    return std::hash<int>{}(f.as_mhz());
  }
};
