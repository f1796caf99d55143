#include "energymon/sacct.hpp"

#include "common/error.hpp"

namespace ecotune::energymon {

Sacct::Sacct(hwsim::NodeSimulator& node) : node_(node) {
  node_.add_listener(this);
}

Sacct::~Sacct() { node_.remove_listener(this); }

void Sacct::job_start(std::string job_name) {
  ensure(!active_, "Sacct::job_start: a job is already being accounted");
  active_ = true;
  current_name_ = std::move(job_name);
  acc_energy_ = Joules(0);
  acc_time_ = Seconds(0);
}

JobRecord Sacct::job_end() {
  ensure(active_, "Sacct::job_end: no active job");
  active_ = false;
  JobRecord rec;
  rec.job_name = current_name_;
  rec.node_id = node_.node_id();
  rec.elapsed = acc_time_;
  rec.consumed_energy = acc_energy_;
  return rec;
}

void Sacct::on_segment(Seconds duration, Watts node_power, Watts /*cpu*/) {
  if (!active_) return;
  acc_energy_ += node_power * duration;
  acc_time_ += duration;
}

}  // namespace ecotune::energymon
