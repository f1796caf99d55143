#pragma once

#include "common/units.hpp"
#include "hwsim/node.hpp"

namespace ecotune::energymon {

/// Simulated Intel RAPL energy interface for the CPU (package + DRAM)
/// domain: a cumulative counter in 15.3 uJ units that the PCU refreshes
/// roughly every millisecond and that wraps around at 32 bits -- exactly the
/// artifacts tools like `measure-rapl` must handle.
struct RaplParams {
  double energy_unit_j = 15.3e-6;  ///< MSR_RAPL_POWER_UNIT energy LSB
  Seconds update_period{1e-3};     ///< PCU refresh interval
  bool wraparound = true;          ///< emulate the 32-bit counter wrap
};

class Rapl final : public hwsim::PowerListener {
 public:
  using Params = RaplParams;

  explicit Rapl(hwsim::NodeSimulator& node, Params params = RaplParams{});
  ~Rapl() override;
  Rapl(const Rapl&) = delete;
  Rapl& operator=(const Rapl&) = delete;

  /// Raw counter read: units of `energy_unit_j`, refreshed at the last
  /// update-period boundary, 32-bit wrapped.
  [[nodiscard]] std::uint64_t read_counter() const;

  /// Energy represented by a counter delta, handling one wrap.
  [[nodiscard]] Joules delta_energy(std::uint64_t before,
                                    std::uint64_t after) const;

  // PowerListener:
  void on_segment(Seconds duration, Watts node_power, Watts cpu_power) override;

 private:
  hwsim::NodeSimulator& node_;
  Params params_;
  Joules exact_{0};           ///< exact integral of CPU power
  Joules at_last_update_{0};  ///< integral at the last PCU refresh
  Seconds clock_{0};          ///< observed time
  long long last_boundary_ = 0;  ///< index of the last committed refresh
};

/// The paper's lightweight `measure-rapl` runtime tool: brackets a run with
/// counter reads and reports the CPU energy delta.
class MeasureRapl {
 public:
  explicit MeasureRapl(Rapl& rapl) : rapl_(rapl) {}
  void start() { begin_ = rapl_.read_counter(); }
  [[nodiscard]] Joules stop() const {
    return rapl_.delta_energy(begin_, rapl_.read_counter());
  }

 private:
  Rapl& rapl_;
  std::uint64_t begin_ = 0;
};

}  // namespace ecotune::energymon
