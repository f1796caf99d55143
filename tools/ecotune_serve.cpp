// Tuning-as-a-service daemon: trains the energy model once, then serves
// concurrent tune/dta/predict/evaluate requests from many tenants over a
// length-prefixed JSON protocol on an AF_UNIX socket (schema
// ecotune.rpc.v1; see README "Tuning service" and tools/ecotune_client).
//
//   ecotune_serve --socket /tmp/ecotune.sock [--workers N]
//                 [--queue-limit N] [--timeout-ms N] [--debug-methods]
//                 [--seed 42] [--epochs 10] [--objective energy]
//                 [--jobs N] [--cache-dir DIR] [--cache-mode rw|ro|off]
//
// Prints one "ready on <socket>" line to stdout once the socket accepts
// connections (smoke tests and scripts wait for it), then blocks until
// SIGINT/SIGTERM, drains every in-flight request, and prints the final
// service-stats document.
#include <cstdint>
#include <iostream>
#include <string>

#include "api/session.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "ptf/objectives.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

using namespace ecotune;

namespace {

struct CliOptions {
  std::string socket_path;
  int workers = 0;  // 0 = hardware concurrency
  int queue_limit = 256;
  int timeout_ms = 30000;
  bool debug_methods = false;
  std::uint64_t seed = 42;
  int epochs = 10;
  std::string objective = "energy";
  int jobs = 0;  // training-phase concurrency (requests always run jobs=1)
  std::string cache_dir;
  std::string cache_mode;  // empty = rw when --cache-dir given, else off
  bool help = false;
};

void print_usage() {
  std::cout <<
      "ecotune_serve -- multi-tenant tuning service daemon\n"
      "\n"
      "usage: ecotune_serve --socket <path> [options]\n"
      "\n"
      "options:\n"
      "  --socket <path>      AF_UNIX socket path to listen on (required;\n"
      "                       stale files from crashed daemons are\n"
      "                       replaced)\n"
      "  --workers <n>        concurrent request workers (default:\n"
      "                       hardware concurrency)\n"
      "  --queue-limit <n>    max queued requests before new ones are\n"
      "                       rejected with an 'overloaded' error\n"
      "                       (default 256)\n"
      "  --timeout-ms <n>     default queue-wait deadline for requests\n"
      "                       without timeout_ms (default 30000)\n"
      "  --debug-methods      enable the test-only 'sleep' method\n"
      "  --seed <n>           simulation seed (default 42)\n"
      "  --epochs <n>         energy-model training epochs (default 10)\n"
      "  --objective <name>   " +
          ptf::objective_names_joined() +
      "\n                       (default energy)\n"
      "  --jobs <n>           training-phase sweep workers (default:\n"
      "                       hardware concurrency); each request then\n"
      "                       runs single-threaded on its own node clone\n"
      "  --cache-dir <dir>    persistent measurement store shared by all\n"
      "                       tenants; a warm restart answers repeated\n"
      "                       requests from the store, byte-identical\n"
      "  --cache-mode <m>     rw|ro|off (default: rw with --cache-dir,\n"
      "                       off otherwise)\n"
      "  --help               this text\n";
}

bool parse_args(int argc, char** argv, CliOptions& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) {
      return cli::next_arg_value(argc, argv, i, flag);
    };
    if (arg == "--socket") {
      const char* v = next("--socket");
      if (!v) return false;
      opts.socket_path = v;
    } else if (arg == "--workers") {
      const char* v = next("--workers");
      if (!v || !cli::parse_strict_int("--workers", v, 0, opts.workers))
        return false;
    } else if (arg == "--queue-limit") {
      const char* v = next("--queue-limit");
      if (!v ||
          !cli::parse_strict_int("--queue-limit", v, 1, opts.queue_limit))
        return false;
    } else if (arg == "--timeout-ms") {
      const char* v = next("--timeout-ms");
      if (!v || !cli::parse_strict_int("--timeout-ms", v, 1, opts.timeout_ms))
        return false;
    } else if (arg == "--debug-methods") {
      opts.debug_methods = true;
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      if (!v ||
          !cli::parse_strict_int("--seed", v, std::uint64_t{0}, opts.seed))
        return false;
    } else if (arg == "--epochs") {
      const char* v = next("--epochs");
      if (!v || !cli::parse_strict_int("--epochs", v, 1, opts.epochs))
        return false;
    } else if (arg == "--objective") {
      const char* v = next("--objective");
      if (!v) return false;
      opts.objective = v;
      try {
        (void)ptf::make_objective(opts.objective);
      } catch (const std::exception& e) {
        std::cerr << "error: " << e.what()
                  << " (registered: " << ptf::objective_names_joined()
                  << ")\n";
        return false;
      }
    } else if (arg == "--jobs") {
      const char* v = next("--jobs");
      if (!v || !cli::parse_strict_int("--jobs", v, 0, opts.jobs))
        return false;
    } else if (arg == "--cache-dir") {
      const char* v = next("--cache-dir");
      if (!v) return false;
      opts.cache_dir = v;
    } else if (arg == "--cache-mode") {
      const char* v = next("--cache-mode");
      if (!v) return false;
      opts.cache_mode = v;
    } else if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else {
      std::cerr << "error: unknown argument '" << arg << "'\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!parse_args(argc, argv, opts)) {
    print_usage();
    return 2;
  }
  if (opts.help) {
    print_usage();
    return 0;
  }
  if (opts.socket_path.empty()) {
    std::cerr << "error: --socket is required\n";
    print_usage();
    return 2;
  }

  serve::ServiceConfig config;
  config.session = api::SessionConfig{}
                       .seed(opts.seed)
                       .jobs(opts.jobs)
                       .cache(opts.cache_dir, opts.cache_mode)
                       .objective(opts.objective)
                       .epochs(opts.epochs);
  config.workers = opts.workers;
  config.queue_limit = static_cast<std::size_t>(opts.queue_limit);
  config.default_timeout_ms = static_cast<double>(opts.timeout_ms);
  config.enable_debug_methods = opts.debug_methods;

  try {
    std::cout << "training model (seed " << opts.seed << ", "
              << opts.epochs << " epochs)...\n"
              << std::flush;
    serve::TuningService service(std::move(config));
    serve::Server server(service, opts.socket_path);
    server.bind_and_listen();
    std::cout << "ready on " << server.socket_path() << '\n' << std::flush;
    server.serve();
    // Final accounting: the same document the "stats" method serves, plus
    // the store's one-line summary.
    std::cout << service.stats().snapshot(service.queue_depth()).dump(2)
              << '\n'
              << service.session().store().summary() << '\n';
  } catch (const ConfigError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
