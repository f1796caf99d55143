#include "tuners/registry.hpp"

#include <utility>

#include "baseline/exhaustive_tuner.hpp"
#include "common/error.hpp"
#include "tuners/governor_tuner.hpp"
#include "tuners/qlearning_tuner.hpp"

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

void TunerRegistry::add(std::string name, Factory factory, bool uses_model) {
  ensure(!name.empty(), "TunerRegistry::add: empty strategy name");
  ensure(static_cast<bool>(factory), "TunerRegistry::add: null factory");
  entries_[std::move(name)] = Entry{std::move(factory), uses_model};
}

bool TunerRegistry::contains(const std::string& name) const {
  return entries_.contains(name);
}

std::string TunerRegistry::names_joined() const {
  std::string out;
  for (const auto& [name, registered] : entries_) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

const TunerRegistry::Entry& TunerRegistry::entry(
    const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw ConfigError("unknown tuner '" + name +
                      "' (registered: " + names_joined() + ")");
  }
  return it->second;
}

bool TunerRegistry::uses_model(const std::string& name) const {
  return entry(name).uses_model;
}

std::unique_ptr<Tuner> TunerRegistry::make(const std::string& name,
                                           const TunerContext& ctx) const {
  const Factory& factory = entry(name).factory;
  ensure(ctx.node != nullptr, "TunerRegistry::make: null node in context");
  return factory(ctx);
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
    r.add(
        "dta",
        [](const TunerContext& ctx) -> std::unique_ptr<Tuner> {
          ensure(static_cast<bool>(ctx.model),
                 "tuner 'dta' needs a trained-model provider in the context");
          core::DvfsUfsPlugin::Options opts = ctx.plugin;
          opts.engine.jobs = ctx.jobs;
          opts.engine.store = ctx.store;
          if (!ctx.key_scope.empty()) opts.engine.key_scope = ctx.key_scope;
          return std::make_unique<DtaTuner>(*ctx.node, ctx.model, opts);
        },
        /*uses_model=*/true);
    r.add("qlearn", [](const TunerContext& ctx) -> std::unique_ptr<Tuner> {
      QLearningOptions opts;
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
