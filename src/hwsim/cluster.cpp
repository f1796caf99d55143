#include "hwsim/cluster.hpp"

#include "common/error.hpp"

namespace ecotune::hwsim {

Cluster::Cluster(CpuSpec spec, std::uint64_t seed, PerfParams perf,
                 PowerParams power)
    : spec_(std::move(spec)),
      perf_(perf),
      power_(power),
      rng_(seed) {}

NodeSimulator& Cluster::node(int id) {
  ensure(id >= 0, "Cluster::node: id must be non-negative");
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    it = nodes_
             .emplace(id, std::make_unique<NodeSimulator>(spec_, id, rng_,
                                                          perf_, power_))
             .first;
  }
  return *it->second;
}

}  // namespace ecotune::hwsim
