#include "lint/include_graph.hpp"

namespace ecotune::lint {

const std::map<std::string, std::set<std::string>>& module_dag() {
  static const std::map<std::string, std::set<std::string>> kDag = {
      {"common", {}},
      {"hwsim", {"common"}},
      {"stats", {"common"}},
      {"store", {"common"}},
      {"nn", {"common", "stats"}},
      {"energymon", {"common", "hwsim"}},
      {"pmc", {"common", "hwsim"}},
      {"workload", {"common", "hwsim"}},
      {"instr", {"common", "hwsim", "workload"}},
      {"readex", {"common", "instr", "workload"}},
      {"trace", {"common", "instr", "pmc"}},
      {"ptf", {"common", "hwsim", "instr", "store", "workload"}},
      {"baseline", {"common", "hwsim", "instr", "ptf", "store", "workload"}},
      {"model",
       {"common", "hwsim", "instr", "nn", "pmc", "stats", "store", "trace",
        "workload"}},
      {"core",
       {"baseline", "common", "energymon", "hwsim", "instr", "model", "ptf",
        "readex", "store", "workload"}},
      {"tuners",
       {"baseline", "common", "core", "hwsim", "instr", "ptf", "store",
        "workload"}},
      {"api",
       {"baseline", "common", "core", "hwsim", "model", "ptf", "store",
        "tuners", "workload"}},
      {"serve", {"api", "common", "core", "store", "workload"}},
  };
  return kDag;
}

std::string module_of(const std::string& path) {
  const std::string prefix = "src/";
  if (!path.starts_with(prefix)) return {};
  const std::size_t slash = path.find('/', prefix.size());
  if (slash == std::string::npos) return {};
  const std::string module = path.substr(prefix.size(),
                                         slash - prefix.size());
  return module_dag().contains(module) ? module : std::string{};
}

bool edge_allowed(const std::string& from, const std::string& to) {
  if (from == to) return true;
  const auto it = module_dag().find(from);
  return it != module_dag().end() && it->second.contains(to);
}

}  // namespace ecotune::lint
