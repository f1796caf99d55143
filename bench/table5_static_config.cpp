// Reproduces paper Table V: the optimal static configuration (OpenMP
// threads, core frequency, uncore frequency) of the five evaluation
// benchmarks, found by exhaustively running each at every configuration and
// keeping the minimum-energy one. One static search runs the five
// benchmarks in sequence on a copy of the api::Session's tuning node, with
// the session's search options, measurement store and jobs policy.
#include <iostream>

#include "api/session.hpp"
#include "baseline/static_tuner.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "ptf/objectives.hpp"

using namespace ecotune;

int main(int argc, char** argv) {
  const auto driver_opts = bench::parse_driver_options(argc, argv);
  auto session = api::open_session_or_exit(
      api::SessionConfig{}
          .tuning_seed(0x7AB5)
          .tuning_node_id(0)
          .jobs(driver_opts.jobs)
          .cache(driver_opts.cache_dir, driver_opts.cache_mode)
          .scope("table5"));
  bench::banner("Table V -- Optimal static configuration",
                "exhaustive (threads x CF x UCF) search per benchmark "
                "(Sec. V-D)");

  struct PaperRow {
    const char* name;
    int threads;
    double cf, ucf;
  };
  const PaperRow paper[] = {{"Lulesh", 24, 2.40, 1.70},
                            {"Amg2013", 16, 2.50, 2.30},
                            {"miniMD", 24, 2.50, 1.50},
                            {"BEM4I", 24, 2.30, 1.90},
                            {"Mcbenchmark", 20, 1.60, 2.50}};

  hwsim::NodeSimulator node = session->tuning_node().clone();
  baseline::StaticTunerOptions search_opts = session->config().static_search();
  search_opts.jobs = session->jobs();
  search_opts.store = &session->store();
  baseline::StaticTuner search(node, search_opts);
  const auto objective = ptf::make_objective(session->config().objective());

  TextTable table("Table V: obtained optimal static configuration");
  table.header({"Benchmark", "thr", "CF", "UCF", "paper thr", "paper CF",
                "paper UCF", "runs"});
  std::size_t i = 0;
  for (const auto& name : workload::BenchmarkSuite::evaluation_names()) {
    const auto result =
        search.tune(workload::BenchmarkSuite::by_name(name), *objective);
    table.row({name, std::to_string(result.best.threads),
               TextTable::num(result.best.core.as_ghz(), 2),
               TextTable::num(result.best.uncore.as_ghz(), 2),
               std::to_string(paper[i].threads),
               TextTable::num(paper[i].cf, 2),
               TextTable::num(paper[i].ucf, 2),
               std::to_string(result.runs)});
    ++i;
  }
  table.print(std::cout);
  std::cout << "\nShape check vs paper: compute-bound (Lulesh, miniMD, "
               "BEM4I) at high CF / low UCF,\nmemory-bound (Mcb) at low CF "
               "/ high UCF, Amg2013 thread-limited at 16.\n";
  session->print_store_summary();
  return 0;
}
