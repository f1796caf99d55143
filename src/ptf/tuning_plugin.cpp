#include "ptf/tuning_plugin.hpp"

#include <string>

namespace ecotune::ptf {

int Frontend::run(TuningPlugin& plugin, const workload::Benchmark& app,
                  hwsim::NodeSimulator& node) {
  PluginContext ctx(node, app);
  plugin.initialize(ctx);

  int scenarios_executed = 0;
  int step = 0;
  app_runs_ = 0;
  while (plugin.has_next_tuning_step()) {
    const std::vector<Scenario> scenarios = plugin.create_scenarios();
    if (scenarios.empty()) continue;
    // Each step gets its own engine (the filter may change between steps);
    // scope their store keys so step N cannot shadow step N-1's entries.
    // A caller-provided scope (campaign row, service request) composes as a
    // prefix so concurrent frontends over the same app cannot collide on
    // identical step task ids either.
    EngineOptions step_options = engine_options_;
    step_options.key_scope =
        (engine_options_.key_scope.empty() ? ""
                                           : engine_options_.key_scope + "/") +
        "step-" + std::to_string(step++);
    ExperimentsEngine engine(node, app, plugin.instrumentation_filter(),
                             step_options);
    const auto results = engine.run(scenarios, plugin.scenario_base());
    app_runs_ += engine.app_runs();
    scenarios_executed += static_cast<int>(scenarios.size());
    plugin.process_results(results);
  }
  plugin.finalize();
  return scenarios_executed;
}

}  // namespace ecotune::ptf
