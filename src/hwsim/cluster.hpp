#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "common/rng.hpp"
#include "hwsim/node.hpp"

namespace ecotune::hwsim {

/// A set of simulated compute nodes sharing one CpuSpec but differing in
/// manufacturing variability -- the Taurus `haswell` partition in miniature.
/// Nodes are created lazily and owned by the cluster.
class Cluster {
 public:
  explicit Cluster(CpuSpec spec = haswell_ep_spec(),
                   std::uint64_t seed = 0x5eedULL, PerfParams perf = {},
                   PowerParams power = {});

  /// Returns node `id`, creating it (with id-derived variability) on first
  /// use. References remain valid for the cluster's lifetime.
  [[nodiscard]] NodeSimulator& node(int id);

  [[nodiscard]] const CpuSpec& spec() const { return spec_; }

 private:
  CpuSpec spec_;
  PerfParams perf_;
  PowerParams power_;
  Rng rng_;
  std::map<int, std::unique_ptr<NodeSimulator>> nodes_;
};

}  // namespace ecotune::hwsim
