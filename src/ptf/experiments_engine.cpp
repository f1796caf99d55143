#include "ptf/experiments_engine.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/numbers.hpp"
#include "common/parallel.hpp"
#include "store/cached.hpp"

namespace ecotune::ptf {

void ScenarioScheduler::on_enter(const instr::RegionEnter& e) {
  if (e.type != instr::RegionType::kPhase) return;
  const std::size_t i = static_cast<std::size_t>(e.iteration);
  if (i >= schedule_.size()) {
    // Past the schedule: deactivate, or trailing iterations would silently
    // be attributed to the previously active scenario.
    active_ = -1;
    return;
  }
  active_ = schedule_[i].first;
  ctx_.apply(schedule_[i].second);
}

void ScenarioScheduler::on_exit(const instr::RegionExit& e) {
  if (active_ < 0) return;
  auto it = buckets_.find(active_);
  if (it == buckets_.end()) return;
  Measurement m;
  // HDEEM-plugin style measurement: exact value with small reading noise.
  const double f = noise_ > 0 ? std::max(0.0, rng_.normal(1.0, noise_)) : 1.0;
  m.node_energy = e.node_energy * f;
  m.cpu_energy = e.cpu_energy * f;
  m.time = e.duration();
  m.count = 1;
  if (e.type == instr::RegionType::kPhase) {
    it->second.phase += m;
  } else {
    it->second.regions[std::string(e.region)] += m;
  }
}

ExperimentsEngine::ExperimentsEngine(hwsim::NodeSimulator& node,
                                     workload::Benchmark app,
                                     instr::InstrumentationFilter filter,
                                     EngineOptions options)
    : node_(node),
      app_(std::move(app)),
      filter_(std::move(filter)),
      options_(options),
      rng_(options.seed) {}

std::vector<ScenarioResult> ExperimentsEngine::run(
    const std::vector<Scenario>& scenarios, const SystemConfig& base) {
  ensure(!scenarios.empty(), "ExperimentsEngine::run: no scenarios");
  ensure(options_.iterations_per_scenario >= 1,
         "ExperimentsEngine::run: iterations_per_scenario must be >= 1");
  ensure(app_.phase_iterations() >= 1,
         "ExperimentsEngine::run: application has no phase iterations");

  // Build the experiment schedule: each scenario occupies
  // `iterations_per_scenario` consecutive phase iterations.
  ScenarioScheduler::Schedule schedule;
  for (const auto& s : scenarios) {
    for (int i = 0; i < options_.iterations_per_scenario; ++i)
      schedule.emplace_back(s.id, scenario_to_config(s, base));
  }
  std::map<std::int64_t, const Scenario*> by_id;
  for (const auto& s : scenarios) by_id.emplace(s.id, &s);

  // Chunk the schedule into application runs: one run covers at most
  // `phase_iterations` scheduled slots.
  const auto per_run = static_cast<std::size_t>(app_.phase_iterations());
  struct Chunk {
    std::size_t begin = 0;
    std::size_t size = 0;
  };
  std::vector<Chunk> chunks;
  for (std::size_t cursor = 0; cursor < schedule.size();) {
    const std::size_t n = std::min(per_run, schedule.size() - cursor);
    chunks.push_back({cursor, n});
    cursor += n;
  }

  // Each chunk is an independent application run: it gets its own node
  // clone and noise substreams keyed by (run call, chunk index), so the
  // measured values do not depend on the number of concurrent jobs.
  const long run_tag = run_calls_++;

  // Everything chunk-invariant the measured values depend on; each chunk
  // extends a copy with its slice and noise key. The job count stays out of
  // the fingerprint on purpose: chunking and noise keys are jobs-invariant,
  // so a cache written at --jobs 1 answers a --jobs N run and vice versa.
  Fingerprint base_fp;
  base_fp.add_digest("node", node_.state_fingerprint())
      .add_digest("app", app_.fingerprint_digest())
      .add("base", base)
      .add("iterations_per_scenario", options_.iterations_per_scenario)
      .add("measurement_noise", options_.measurement_noise)
      .add("seed", options_.seed)
      .add("filter", filter_.to_filter_file());

  struct ChunkOutcome {
    std::map<std::int64_t, ScenarioResult> buckets;
    Seconds elapsed{0};
  };
  const auto outcomes = parallel_map_ordered(
      chunks.size(),
      [&](std::size_t k) {
        const Chunk& chunk = chunks[k];
        const std::string key = "engine-run-" + std::to_string(run_tag) +
                                "-chunk-" + std::to_string(k);
        const ScenarioScheduler::Schedule slice(
            schedule.begin() + static_cast<std::ptrdiff_t>(chunk.begin),
            schedule.begin() +
                static_cast<std::ptrdiff_t>(chunk.begin + chunk.size));

        ChunkOutcome out;
        for (const auto& [id, config] : slice) {
          if (out.buckets.contains(id)) continue;
          ScenarioResult r;
          r.scenario = *by_id.at(id);
          r.config = config;
          out.buckets.emplace(id, std::move(r));
        }

        return store::cached(
            options_.store,
            store::scoped_task("engine", app_.name(), options_.key_scope,
                               key),
            [&] {
              Fingerprint fp = base_fp;
              fp.add("chunk_key", key);
              for (const auto& [id, config] : slice)
                fp.add("slot", static_cast<std::int64_t>(id))
                    .add("slot_config", config);
              return fp.digest();
            },
            [&](std::string_view payload) {
              // Decode into a copy, so a payload that fails halfway leaves
              // no half-filled buckets behind for the simulation.
              ChunkOutcome cached = out;
              JsonReader reader(payload);
              reader.begin_object();
              reader.key("buckets");
              reader.begin_object();
              std::size_t decoded = 0;
              for (std::string_view id_text; reader.next_key(id_text);) {
                std::int64_t id = 0;
                if (!parse_int(id_text, id))
                  throw Error("bad bucket id '" + std::string(id_text) + "'");
                auto& r = cached.buckets.at(id);
                reader.begin_object();
                reader.key("phase");
                r.phase = read_measurement(reader);
                reader.key("regions");
                reader.begin_object();
                for (std::string_view region; reader.next_key(region);)
                  r.regions[std::string(region)] = read_measurement(reader);
                reader.end_object();
                ++decoded;
              }
              reader.key("elapsed");
              cached.elapsed = Seconds(reader.number());
              reader.end_object();
              reader.end();
              // .at() above rejects payload ids outside the slice; this
              // rejects payloads covering only a subset of it, which would
              // otherwise return zero-initialized scenario measurements.
              ensure(decoded == cached.buckets.size(),
                     "payload covers a different scenario set");
              return cached;
            },
            [&] {
              hwsim::NodeSimulator node = node_.clone(key);
              Rng rng = rng_.fork(key);
              const Seconds t0 = node.now();
              // Shorten the app so the run ends when its slice is exhausted.
              const workload::Benchmark run_app =
                  app_.with_iterations(static_cast<int>(chunk.size));
              instr::ExecutionContext ctx(node);
              ctx.apply(base);
              ScenarioScheduler scheduler(ctx, slice, out.buckets, rng,
                                          options_.measurement_noise);
              instr::ScorepRuntime runtime(run_app, filter_);
              runtime.add_listener(&scheduler);
              runtime.execute(ctx);
              out.elapsed = node.now() - t0;
              return std::move(out);
            },
            [](const ChunkOutcome& out) {
              Json buckets = Json::object();
              for (const auto& [id, r] : out.buckets) {
                Json bucket = Json::object();
                bucket["phase"] = to_json(r.phase);
                Json regions = Json::object();
                for (const auto& [region, m] : r.regions)
                  regions[region] = to_json(m);
                bucket["regions"] = std::move(regions);
                buckets[std::to_string(id)] = std::move(bucket);
              }
              Json payload = Json::object();
              payload["elapsed"] = out.elapsed.value();
              payload["buckets"] = std::move(buckets);
              return payload;
            });
      },
      options_.jobs);

  // Ordered reduce: merge chunk buckets in schedule order (a scenario's
  // iterations can straddle a chunk boundary) and account the simulated
  // time the clones consumed on the parent node's timeline.
  std::map<std::int64_t, ScenarioResult> merged;
  Seconds total{0};
  for (const auto& out : outcomes) {
    for (const auto& [id, r] : out.buckets) {
      auto it = merged.find(id);
      if (it == merged.end()) {
        merged.emplace(id, r);
      } else {
        it->second.phase += r.phase;
        for (const auto& [region, m] : r.regions)
          it->second.regions[region] += m;
      }
    }
    total += out.elapsed;
  }
  app_runs_ += static_cast<long>(chunks.size());
  node_.idle(total);

  std::vector<ScenarioResult> results;
  results.reserve(scenarios.size());
  for (const auto& s : scenarios) results.push_back(merged.at(s.id));
  return results;
}

const ScenarioResult& ExperimentsEngine::best_phase(
    const std::vector<ScenarioResult>& results,
    const TuningObjective& objective) {
  ensure(!results.empty(), "best_phase: no results");
  const ScenarioResult* best = &results.front();
  for (const auto& r : results) {
    if (objective.evaluate(r.phase) < objective.evaluate(best->phase))
      best = &r;
  }
  return *best;
}

std::map<std::string, const ScenarioResult*>
ExperimentsEngine::best_per_region(const std::vector<ScenarioResult>& results,
                                   const TuningObjective& objective) {
  std::map<std::string, const ScenarioResult*> best;
  for (const auto& r : results) {
    for (const auto& [region, m] : r.regions) {
      auto it = best.find(region);
      if (it == best.end()) {
        best.emplace(region, &r);
      } else {
        const Measurement& incumbent = it->second->regions.at(region);
        if (objective.evaluate(m) < objective.evaluate(incumbent))
          it->second = &r;
      }
    }
  }
  return best;
}

}  // namespace ecotune::ptf
