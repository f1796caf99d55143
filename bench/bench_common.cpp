#include "bench_common.hpp"

#include <cstdlib>
#include <cstring>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "ptf/objectives.hpp"
#include "tuners/registry.hpp"

namespace ecotune::bench {

void banner(const std::string& title, const std::string& paper_reference) {
  std::cout << "\n================================================================\n"
            << title << '\n'
            << "Reproduces: " << paper_reference << '\n'
            << "Paper: Chadha & Gerndt, \"Modelling DVFS and UFS for "
               "Region-Based\n       Energy Aware Tuning of HPC "
               "Applications\", IPDPS(W) 2019\n"
            << "================================================================\n\n";
}

namespace {

[[noreturn]] void print_driver_usage(const char* argv0, int exit_code,
                                     bool with_tuner_flags) {
  std::cout
      << "usage: " << argv0
      << " [--jobs N] [--cache-dir DIR] [--cache-mode rw|ro|off]";
  if (with_tuner_flags) std::cout << " [--tuner NAME]... [--objective NAME]";
  std::cout
      << "\n  --jobs N         parallel sweep workers (default: hardware "
         "concurrency;\n                   output is identical for any N)\n"
      << "  --cache-dir DIR  persistent measurement store; a warm rerun "
         "answers seen\n                   measurements from the store and "
         "prints byte-identical\n                   stdout\n"
      << "  --cache-mode M   rw|ro|off (default: rw with --cache-dir, off "
         "otherwise)\n";
  if (with_tuner_flags) {
    std::cout
        << "  --tuner NAME     compare a registered strategy instead of the "
           "default\n                   tables; repeat the flag to compare "
           "several\n                   (registered: "
        << tuners::default_registry().names_joined() << ")\n"
        << "  --objective NAME objective for --tuner mode (default energy;\n"
           "                   registered: "
        << ptf::objective_names_joined()
        << ";\n                   power_cap:<W> / energy_budget:<J> "
           "parameterize the cap)\n";
  }
  std::exit(exit_code);
}

// Unknown strategy/objective names are CLI errors: exit 2 with the full
// registered vocabulary, exactly like ecotune_dta's flag validation.
std::string validated_tuner(const char* value) {
  const auto& registry = tuners::default_registry();
  if (!registry.contains(value)) {
    std::cerr << "error: unknown tuner '" << value
              << "' (registered: " << registry.names_joined() << ")\n";
    std::exit(2);
  }
  return value;
}

std::string validated_objective(const char* value) {
  try {
    (void)ptf::make_objective(value);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what()
              << " (registered: " << ptf::objective_names_joined() << ")\n";
    std::exit(2);
  }
  return value;
}

DriverOptions parse_driver_options_impl(int argc, char** argv,
                                        TunerSelection* selection) {
  DriverOptions opts;
  int jobs = 0;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      const char* value = cli::next_arg_value(argc, argv, i, flag);
      if (value == nullptr) std::exit(2);
      return value;
    };
    if (std::strcmp(argv[i], "--jobs") == 0) {
      jobs = cli::parse_strict_int_or_exit("--jobs", next("--jobs"), 0);
    } else if (std::strcmp(argv[i], "--cache-dir") == 0) {
      opts.cache_dir = next("--cache-dir");
    } else if (std::strcmp(argv[i], "--cache-mode") == 0) {
      opts.cache_mode = next("--cache-mode");
    } else if (selection != nullptr &&
               std::strcmp(argv[i], "--tuner") == 0) {
      selection->tuners.push_back(validated_tuner(next("--tuner")));
    } else if (selection != nullptr &&
               std::strcmp(argv[i], "--objective") == 0) {
      selection->objective = validated_objective(next("--objective"));
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      print_driver_usage(argv[0], 0, selection != nullptr);
    } else {
      std::cerr << "error: unknown argument '" << argv[i]
                << "' (try --help)\n";
      std::exit(2);
    }
  }
  opts.jobs = resolve_jobs(jobs);
  return opts;
}

}  // namespace

DriverOptions parse_driver_options(int argc, char** argv) {
  return parse_driver_options_impl(argc, argv, nullptr);
}

DriverOptions parse_driver_options(int argc, char** argv,
                                   TunerSelection& selection) {
  return parse_driver_options_impl(argc, argv, &selection);
}

}  // namespace ecotune::bench
