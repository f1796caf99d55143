#pragma once

#include <string>

#include "common/units.hpp"
#include "hwsim/node.hpp"

namespace ecotune::energymon {

/// Post-mortem job record, as `sacct --format=JobID,Elapsed,ConsumedEnergy`
/// would report it on the paper's system.
struct JobRecord {
  std::string job_name;
  int node_id = 0;
  Seconds elapsed{0};
  Joules consumed_energy{0};  ///< node (HDEEM-fed) energy
};

/// Simulated SLURM accounting: brackets a "job" on one node and reports its
/// wall time and node energy when it ends (paper Sec. V-D measures job
/// energy and time via sacct).
class Sacct final : public hwsim::PowerListener {
 public:
  explicit Sacct(hwsim::NodeSimulator& node);
  ~Sacct() override;
  Sacct(const Sacct&) = delete;
  Sacct& operator=(const Sacct&) = delete;

  /// Starts accounting a job.
  void job_start(std::string job_name);
  /// Ends the job and returns its record.
  JobRecord job_end();

  // PowerListener:
  void on_segment(Seconds duration, Watts node_power, Watts cpu_power) override;

 private:
  hwsim::NodeSimulator& node_;
  bool active_ = false;
  std::string current_name_;
  Joules acc_energy_{0};
  Seconds acc_time_{0};
};

}  // namespace ecotune::energymon
