#include "tuners/dta_tuner.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"

namespace ecotune::tuners {

DtaTuner::DtaTuner(hwsim::NodeSimulator& node, ModelProvider model,
                   core::DvfsUfsPlugin::Options options)
    : node_(node), model_(std::move(model)), options_(std::move(options)) {
  ensure(static_cast<bool>(model_), "DtaTuner: null model provider");
}

TuningOutcome DtaTuner::tune(const TuningRequest& request) {
  const auto objective = ptf::make_objective(request.objective);
  core::DvfsUfsPlugin::Options options = options_;
  options.config.objective = std::string(objective->name());
  const core::DtaResult result =
      core::DvfsUfsPlugin(model_(), options).run_dta(request.app, node_);

  TuningOutcome out;
  out.tuner = std::string(name());
  out.objective = std::string(objective->name());
  out.best = result.phase_best;
  out.region_best = result.region_best;
  out.scenarios_evaluated = result.thread_scenarios + result.analysis_runs +
                            result.frequency_scenarios;
  out.app_runs = result.app_runs;
  out.tuning_time = result.tuning_time;
  return out;
}

}  // namespace ecotune::tuners
