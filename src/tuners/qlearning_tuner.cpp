#include "tuners/qlearning_tuner.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <tuple>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "instr/scorep_runtime.hpp"
#include "store/cached.hpp"

namespace ecotune::tuners {
namespace {

/// Position on the state lattice: (thread index, steps below max CF, steps
/// below max UCF). Ordered so the Q table can live in a std::map (the
/// determinism lint forbids unordered containers near output paths).
using State = std::tuple<int, int, int>;

/// Action set: hold, threads +/- one lattice step, CF/UCF +/- one stride.
enum Action : int {
  kStay = 0,
  kThreadsUp,
  kThreadsDown,
  kCoreDown,
  kCoreUp,
  kUncoreDown,
  kUncoreUp,
  kActionCount,
};

using QRow = std::array<double, kActionCount>;

struct Lattice {
  std::vector<int> thread_counts;
  int core_levels = 0;    ///< reachable CF positions (0 = grid max)
  int uncore_levels = 0;  ///< reachable UCF positions (0 = grid max)
  int cf_step = 1;
  int ucf_step = 1;

  [[nodiscard]] bool valid(const State& s, Action a) const {
    const auto [ti, ck, uk] = s;
    switch (a) {
      case kStay:
        return true;
      case kThreadsUp:
        return ti + 1 < static_cast<int>(thread_counts.size());
      case kThreadsDown:
        return ti > 0;
      case kCoreDown:
        return ck + 1 < core_levels;
      case kCoreUp:
        return ck > 0;
      case kUncoreDown:
        return uk + 1 < uncore_levels;
      case kUncoreUp:
        return uk > 0;
      default:
        return false;
    }
  }

  [[nodiscard]] State apply(const State& s, Action a) const {
    auto [ti, ck, uk] = s;
    switch (a) {
      case kThreadsUp:
        ++ti;
        break;
      case kThreadsDown:
        --ti;
        break;
      case kCoreDown:
        ++ck;
        break;
      case kCoreUp:
        --ck;
        break;
      case kUncoreDown:
        ++uk;
        break;
      case kUncoreUp:
        --uk;
        break;
      default:
        break;
    }
    return State{ti, ck, uk};
  }

  [[nodiscard]] SystemConfig config(const hwsim::CpuSpec& spec,
                                    const State& s) const {
    const auto [ti, ck, uk] = s;
    const std::size_t ci = spec.core_grid.size() - 1 -
                           static_cast<std::size_t>(ck * cf_step);
    const std::size_t ui = spec.uncore_grid.size() - 1 -
                           static_cast<std::size_t>(uk * ucf_step);
    return SystemConfig{thread_counts[static_cast<std::size_t>(ti)],
                        spec.core_grid.at(ci), spec.uncore_grid.at(ui)};
  }
};

/// Greedy action over the valid subset, first-listed winner on ties (the
/// enum order is the deterministic tie-break).
Action best_action(const Lattice& lattice, const QRow& row, const State& s) {
  Action best = kStay;
  double best_q = -std::numeric_limits<double>::max();
  for (int a = 0; a < kActionCount; ++a) {
    const auto action = static_cast<Action>(a);
    if (!lattice.valid(s, action)) continue;
    if (row[static_cast<std::size_t>(a)] > best_q) {
      best_q = row[static_cast<std::size_t>(a)];
      best = action;
    }
  }
  return best;
}

double max_q(const Lattice& lattice, const QRow& row, const State& s) {
  return row[static_cast<std::size_t>(best_action(lattice, row, s))];
}

}  // namespace

QLearningTuner::QLearningTuner(hwsim::NodeSimulator& node,
                               QLearningOptions options)
    : node_(node), options_(std::move(options)) {
  ensure(options_.episodes > 0, "QLearningTuner: episodes must be positive");
  ensure(!options_.thread_counts.empty(),
         "QLearningTuner: empty thread-count lattice");
  ensure(options_.cf_step > 0 && options_.ucf_step > 0,
         "QLearningTuner: frequency strides must be positive");
}

TuningOutcome QLearningTuner::tune(const TuningRequest& request) {
  const auto objective = ptf::make_objective(request.objective);
  const auto& spec = node_.spec();
  const workload::Benchmark short_app =
      request.app.with_iterations(options_.phase_iterations);

  Lattice lattice;
  lattice.thread_counts = options_.thread_counts;
  lattice.cf_step = options_.cf_step;
  lattice.ucf_step = options_.ucf_step;
  lattice.core_levels =
      static_cast<int>(spec.core_grid.size() - 1) / options_.cf_step + 1;
  lattice.uncore_levels =
      static_cast<int>(spec.uncore_grid.size() - 1) / options_.ucf_step + 1;

  // The walk starts at the cluster default operating point: grid maxima and
  // the largest configured thread count (the lattice anchors at index 0).
  const State start{static_cast<int>(lattice.thread_counts.size()) - 1, 0, 0};

  const long call_tag = tune_calls_++;
  const std::string call_key = "qlearn-" + std::to_string(call_tag);
  // All exploration randomness comes from per-episode forks of one
  // call-keyed stream: episode i draws from fork(call).fork(i) regardless
  // of anything that happened in other episodes, so the schedule is pinned
  // by (seed, call, episode) alone.
  const Rng call_rng = Rng(options_.seed).fork(call_key);

  // The full episode schedule is part of each entry's identity: node
  // state, app, objective, and every hyperparameter that shapes the
  // trajectory. A warm run with identical options replays the identical
  // walk, so each episode's lookup hits.
  Fingerprint base_fp;
  base_fp.add_digest("node", node_.state_fingerprint())
      .add_digest("app", short_app.fingerprint_digest())
      .add("objective", objective->name())
      .add("episodes", options_.episodes)
      .add("alpha", options_.alpha)
      .add("gamma", options_.gamma)
      .add("epsilon0", options_.epsilon0)
      .add("epsilon_decay", options_.epsilon_decay)
      .add("epsilon_min", options_.epsilon_min)
      .add("phase_iterations", options_.phase_iterations)
      .add("cf_step", options_.cf_step)
      .add("ucf_step", options_.ucf_step)
      .add("seed", options_.seed);
  for (int t : options_.thread_counts) base_fp.add("thread_count", t);

  std::map<State, QRow> q;
  State state = start;
  TuningOutcome out;
  out.tuner = std::string(name());
  out.objective = std::string(objective->name());
  double best_score = std::numeric_limits<double>::max();
  double ref_score = 0.0;
  bool have_ref = false;
  Seconds total{0};

  for (int ep = 0; ep < options_.episodes; ++ep) {
    Rng ep_rng = call_rng.fork(static_cast<std::uint64_t>(ep));
    const double epsilon =
        std::max(options_.epsilon_min,
                 options_.epsilon0 * std::pow(options_.epsilon_decay, ep));

    Action action = kStay;
    if (ep_rng.uniform() < epsilon) {
      std::vector<Action> valid;
      for (int a = 0; a < kActionCount; ++a) {
        if (lattice.valid(state, static_cast<Action>(a))) {
          valid.push_back(static_cast<Action>(a));
        }
      }
      action = valid[static_cast<std::size_t>(
          ep_rng.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1))];
    } else {
      action = best_action(lattice, q[state], state);
    }

    const State next = lattice.apply(state, action);
    const SystemConfig config = lattice.config(spec, next);

    // Measure the episode's configuration on a clone whose noise stream is
    // keyed by (call, episode) -- the same task-identity convention the
    // sweep tuners use, so caching and determinism work identically.
    const std::string noise_key = call_key + "-ep-" + std::to_string(ep);
    struct Episode {
      ptf::Measurement m;
      Seconds elapsed{0};
    };
    const Episode episode = store::cached(
        options_.store,
        store::scoped_task("qlearn", request.app.name(), options_.key_scope,
                           noise_key),
        [&] {
          return Fingerprint(base_fp)
              .add("noise_key", noise_key)
              .add("episode", ep)
              .add("config", config)
              .digest();
        },
        [](std::string_view payload) {
          Episode e;
          JsonReader r(payload);
          r.begin_object();
          r.key("elapsed");
          e.elapsed = Seconds(r.number());
          r.key("m");
          e.m = ptf::read_measurement(r);
          r.end_object();
          r.end();
          return e;
        },
        [&] {
          hwsim::NodeSimulator node = node_.clone(noise_key);
          const Seconds t0 = node.now();
          const auto run = instr::run_uninstrumented(short_app, node, config);
          Episode e;
          e.m.node_energy = run.node_energy;
          e.m.cpu_energy = run.cpu_energy;
          e.m.time = run.wall_time;
          e.m.count = 1;
          e.elapsed = node.now() - t0;
          return e;
        },
        [](const Episode& e) {
          Json payload = Json::object();
          payload["m"] = ptf::to_json(e.m);
          payload["elapsed"] = e.elapsed.value();
          return payload;
        });
    const ptf::Measurement& m = episode.m;
    total += episode.elapsed;

    const double score = objective->evaluate(m);
    if (!have_ref) {
      ref_score = score;
      have_ref = true;
    }
    // Relative improvement over the reference (first) episode; positive
    // when the new configuration beats the starting point.
    const double reward =
        ref_score != 0.0 ? (ref_score - score) / ref_score : -score;

    QRow& row = q[state];
    const double future = max_q(lattice, q[next], next);
    double& value = row[static_cast<std::size_t>(action)];
    value += options_.alpha * (reward + options_.gamma * future - value);

    if (score < best_score) {
      best_score = score;
      out.best = config;
      out.best_measurement = m;
    }
    state = next;
  }

  out.scenarios_evaluated = options_.episodes;
  out.app_runs = options_.episodes;
  out.tuning_time = total;
  // The clones consumed simulated time off the parent's timeline; put it
  // back so downstream accounting (now() deltas) stays meaningful.
  node_.idle(total);
  return out;
}

}  // namespace ecotune::tuners
