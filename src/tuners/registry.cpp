#include "tuners/registry.hpp"

#include <utility>

#include "baseline/exhaustive_tuner.hpp"
#include "common/error.hpp"
#include "tuners/governor_tuner.hpp"

namespace ecotune::tuners {
namespace {

std::unique_ptr<Tuner> make_governor(const TunerContext& ctx,
                                     GovernorPolicy policy) {
  GovernorOptions opts;
  opts.store = ctx.store;
  opts.key_scope = ctx.key_scope;
  return std::make_unique<GovernorTuner>(*ctx.node, policy, opts);
}

}  // namespace

void TunerRegistry::add(std::string name, Factory factory) {
  ensure(!name.empty(), "TunerRegistry::add: empty strategy name");
  ensure(static_cast<bool>(factory), "TunerRegistry::add: null factory");
  factories_[std::move(name)] = std::move(factory);
}

bool TunerRegistry::contains(const std::string& name) const {
  return factories_.contains(name);
}

std::vector<std::string> TunerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;  // std::map iteration order is already sorted
}

std::string TunerRegistry::names_joined() const {
  std::string out;
  for (const auto& [name, factory] : factories_) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::unique_ptr<Tuner> TunerRegistry::make(const std::string& name,
                                           const TunerContext& ctx) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw ConfigError("unknown tuner '" + name +
                      "' (registered: " + names_joined() + ")");
  }
  ensure(ctx.node != nullptr, "TunerRegistry::make: null node in context");
  return it->second(ctx);
}

const TunerRegistry& default_registry() {
  static const TunerRegistry kRegistry = [] {
    TunerRegistry r;
    r.add("exhaustive", [](const TunerContext& ctx) -> std::unique_ptr<Tuner> {
      baseline::ExhaustiveTunerOptions opts;
      opts.jobs = ctx.jobs;
      opts.store = ctx.store;
      opts.key_scope = ctx.key_scope;
      return std::make_unique<baseline::ExhaustiveTuner>(*ctx.node, opts);
    });
    r.add("static", [](const TunerContext& ctx) -> std::unique_ptr<Tuner> {
      baseline::StaticTunerOptions opts = ctx.static_search;
      opts.jobs = ctx.jobs;
      opts.store = ctx.store;
      opts.key_scope = ctx.key_scope;
      return std::make_unique<baseline::StaticTuner>(*ctx.node, opts);
    });
    r.add("dta", [](const TunerContext& ctx) -> std::unique_ptr<Tuner> {
      ensure(static_cast<bool>(ctx.model),
             "tuner 'dta' needs a trained-model provider in the context");
      core::DvfsUfsPlugin::Options opts = ctx.plugin;
      opts.engine.jobs = ctx.jobs;
      opts.engine.store = ctx.store;
      if (!ctx.key_scope.empty()) opts.engine.key_scope = ctx.key_scope;
      return std::make_unique<DtaTuner>(*ctx.node, ctx.model, opts);
    });
    r.add("qlearn", [](const TunerContext& ctx) -> std::unique_ptr<Tuner> {
      QLearningOptions opts = ctx.qlearn;
      opts.store = ctx.store;
      opts.key_scope = ctx.key_scope;
      return std::make_unique<QLearningTuner>(*ctx.node, opts);
    });
    r.add("ondemand", [](const TunerContext& ctx) {
      return make_governor(ctx, GovernorPolicy::kOndemand);
    });
    r.add("conservative", [](const TunerContext& ctx) {
      return make_governor(ctx, GovernorPolicy::kConservative);
    });
    return r;
  }();
  return kRegistry;
}

}  // namespace ecotune::tuners
