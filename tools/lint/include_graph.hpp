#pragma once

// The module layering DAG of src/, mirrored from the DEPS lists in
// src/*/CMakeLists.txt. The include-layering rule enforces it on
// #include edges, so a header dependency that the linker would reject
// (or silently tolerate through transitive include paths) fails lint
// instead of rotting the layer diagram.
//
// Keep this table in sync with the DEPS arguments of ecotune_add_module
// in src/*/CMakeLists.txt — the include_graph test cross-checks shape
// invariants (acyclic, common at the bottom), and a mismatch shows up as
// either a lint false positive or a link error.

#include <map>
#include <set>
#include <string>

namespace ecotune::lint {

/// module -> the modules it may include from (its direct CMake DEPS).
/// Every module may also include itself; that edge is implicit.
[[nodiscard]] const std::map<std::string, std::set<std::string>>&
module_dag();

/// The src/ module owning `path` ("src/hwsim/node.cpp" -> "hwsim"), or ""
/// when the path is not of the form src/<known-module>/...
[[nodiscard]] std::string module_of(const std::string& path);

/// True when code in module `from` may include a header of module `to`.
[[nodiscard]] bool edge_allowed(const std::string& from,
                                const std::string& to);

}  // namespace ecotune::lint
