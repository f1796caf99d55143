#include "tuners/governor_tuner.hpp"

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "instr/execution_context.hpp"
#include "instr/scorep_runtime.hpp"
#include "store/cached.hpp"
#include "store/serdes.hpp"

namespace ecotune::tuners {
namespace {

/// Reacts to each phase iteration's measured load by re-deciding the core
/// frequency for the next iteration, and aggregates per-configuration
/// residence so the tuner can report the governor's steady-state choice.
class GovernorListener final : public instr::RegionListener {
 public:
  GovernorListener(instr::ExecutionContext& ctx, GovernorPolicy policy,
                   const GovernorOptions& options)
      : ctx_(ctx), policy_(policy), options_(options) {}

  void on_exit(const instr::RegionExit& ev) override {
    if (ev.type != instr::RegionType::kPhase) return;
    record(ev);
    govern(load_of(ev));
  }

  /// Per-configuration residence, in first-visited order.
  struct Residence {
    SystemConfig config;
    ptf::Measurement m;
  };
  [[nodiscard]] const std::vector<Residence>& residences() const {
    return residences_;
  }

 private:
  static double load_of(const instr::RegionExit& ev) {
    const double cycles = ev.counters[static_cast<std::size_t>(
        hwsim::PmuEvent::kTOT_CYC)];
    const double stalled = ev.counters[static_cast<std::size_t>(
        hwsim::PmuEvent::kRES_STL)];
    if (cycles <= 0.0) return 1.0;  // no signal: assume busy, stay high
    const double load = 1.0 - stalled / cycles;
    return load < 0.0 ? 0.0 : (load > 1.0 ? 1.0 : load);
  }

  void record(const instr::RegionExit& ev) {
    for (auto& r : residences_) {
      if (r.config == ev.config) {
        r.m.node_energy += ev.node_energy;
        r.m.cpu_energy += ev.cpu_energy;
        r.m.time += ev.duration();
        ++r.m.count;
        return;
      }
    }
    Residence r;
    r.config = ev.config;
    r.m.node_energy = ev.node_energy;
    r.m.cpu_energy = ev.cpu_energy;
    r.m.time = ev.duration();
    r.m.count = 1;
    residences_.push_back(r);
  }

  void govern(double load) {
    const auto& grid = ctx_.node().spec().core_grid;
    const CoreFreq current = ctx_.current().core;
    CoreFreq next = current;
    if (policy_ == GovernorPolicy::kOndemand) {
      if (load >= options_.up_threshold) {
        next = grid.max();
      } else {
        // Below the threshold ondemand scales proportionally to load.
        const double span =
            static_cast<double>(grid.max().as_mhz() - grid.min().as_mhz());
        next = grid.clamp(CoreFreq::mhz(
            grid.min().as_mhz() + static_cast<int>(load * span)));
      }
    } else {
      const auto index = static_cast<int>(grid.index_of(current));
      int target = index;
      if (load > options_.up_threshold) {
        target = index + options_.freq_step;
      } else if (load < options_.down_threshold) {
        target = index - options_.freq_step;
      }
      const int last = static_cast<int>(grid.size()) - 1;
      target = target < 0 ? 0 : (target > last ? last : target);
      next = grid.at(static_cast<std::size_t>(target));
    }
    if (next.as_mhz() != current.as_mhz()) {
      SystemConfig config = ctx_.current();
      config.core = next;
      ctx_.apply(config);  // charges the DVFS switching latency
    }
  }

  instr::ExecutionContext& ctx_;
  GovernorPolicy policy_;
  GovernorOptions options_;
  std::vector<Residence> residences_;
};

}  // namespace

std::string_view to_string(GovernorPolicy policy) {
  return policy == GovernorPolicy::kOndemand ? "ondemand" : "conservative";
}

GovernorTuner::GovernorTuner(hwsim::NodeSimulator& node, GovernorPolicy policy,
                             GovernorOptions options)
    : node_(node), policy_(policy), options_(options) {
  ensure(options_.freq_step > 0, "GovernorTuner: freq_step must be positive");
  ensure(options_.down_threshold <= options_.up_threshold,
         "GovernorTuner: down_threshold must not exceed up_threshold");
}

TuningOutcome GovernorTuner::tune(const TuningRequest& request) {
  const auto objective = ptf::make_objective(request.objective);
  TuningOutcome out;
  out.tuner = std::string(name());
  out.objective = std::string(objective->name());

  const long call_tag = tune_calls_++;
  const std::string noise_key = "governor-" + std::string(name()) + "-" +
                                std::to_string(call_tag);

  // What one governed run yields; its clone's simulated time goes back to
  // the parent timeline whether it was simulated or replayed.
  struct GovernedRun {
    SystemConfig best;
    ptf::Measurement m;
    long scenarios = 0;
    Seconds tuning_time{0};
    Seconds elapsed{0};
  };
  const GovernedRun run = store::cached(
      options_.store,
      store::scoped_task("governor/" + std::string(name()),
                         request.app.name(), options_.key_scope, noise_key),
      [&] {
        return Fingerprint()
            .add_digest("node", node_.state_fingerprint())
            .add_digest("app", request.app.fingerprint_digest())
            .add("policy", to_string(policy_))
            .add("up_threshold", options_.up_threshold)
            .add("down_threshold", options_.down_threshold)
            .add("freq_step", options_.freq_step)
            .add("noise_key", noise_key)
            .digest();
      },
      [](std::string_view payload) {
        GovernedRun run;
        JsonReader r(payload);
        r.begin_object();
        r.key("best");
        run.best = store::config_from_json(r.value());
        r.key("elapsed");
        run.elapsed = Seconds(r.number());
        r.key("m");
        run.m = ptf::read_measurement(r);
        r.key("scenarios");
        run.scenarios = static_cast<long>(r.number());
        r.key("tuning_time");
        run.tuning_time = Seconds(r.number());
        r.end_object();
        r.end();
        return run;
      },
      [&] {
        // One governed run of the full application on a task-keyed clone.
        // Only the phase region carries probes: the governor samples at
        // phase boundaries, exactly like a kernel governor's periodic load
        // sampling.
        hwsim::NodeSimulator node = node_.clone(noise_key);
        const auto& spec = node.spec();
        instr::InstrumentationFilter filter =
            instr::InstrumentationFilter::instrument_all();
        for (const auto& region : request.app.regions())
          filter.exclude(region.name);

        instr::ExecutionContext ctx(node);
        ctx.apply(SystemConfig{spec.total_cores(), spec.default_core,
                               spec.default_uncore});
        instr::ScorepRuntime runtime(request.app, std::move(filter));
        GovernorListener governor(ctx, policy_, options_);
        runtime.add_listener(&governor);

        const Seconds t0 = node.now();
        runtime.execute(ctx);
        GovernedRun run;
        run.elapsed = node.now() - t0;

        // The governor's recommendation is its steady state: the
        // configuration the run spent the most phase time under
        // (first-reached wins ties).
        const auto& residences = governor.residences();
        ensure(!residences.empty(),
               "GovernorTuner: the application fired no phase events");
        const GovernorListener::Residence* best = &residences.front();
        for (const auto& r : residences) {
          if (r.m.time.value() > best->m.time.value()) best = &r;
        }
        run.best = best->config;
        run.m = best->m;
        run.scenarios = static_cast<long>(residences.size());
        run.tuning_time = run.elapsed;
        return run;
      },
      [](const GovernedRun& run) {
        Json payload = Json::object();
        payload["best"] = store::to_json(run.best);
        payload["m"] = ptf::to_json(run.m);
        payload["scenarios"] = static_cast<std::int64_t>(run.scenarios);
        payload["tuning_time"] = run.tuning_time.value();
        payload["elapsed"] = run.elapsed.value();
        return payload;
      });

  out.best = run.best;
  out.best_measurement = run.m;
  out.scenarios_evaluated = run.scenarios;
  out.app_runs = 1;
  out.tuning_time = run.tuning_time;
  // Return the clone's simulated time to the parent timeline.
  node_.idle(run.elapsed);
  return out;
}

}  // namespace ecotune::tuners
