// Exercises the installed public API surface: construct a Session (opens
// the disabled store, resolves the jobs policy) and touch the workload
// suite. Kept deliberately cheap -- the point is that headers resolve and
// the whole static-library stack links from an installed tree.
#include <iostream>

#include "api/report.hpp"
#include "api/session.hpp"
#include "common/error.hpp"

int main() {
  ecotune::api::Session session(
      ecotune::api::SessionConfig{}.seed(1).jobs(1).objective("energy"));
  const auto names = ecotune::workload::BenchmarkSuite::names();
  if (names.empty() || session.jobs() != 1) return 1;
  try {
    (void)session.model();  // nothing trained yet: must throw
    return 1;
  } catch (const ecotune::Error&) {
  }

  std::cout << "ecotune installed OK: " << names.size()
            << " benchmarks, jobs=" << session.jobs() << '\n';
  return 0;
}
