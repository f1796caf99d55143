#pragma once

#include <functional>

#include "core/dvfs_ufs_plugin.hpp"
#include "hwsim/node.hpp"
#include "ptf/tuner.hpp"

namespace ecotune::tuners {

/// Adapter that runs the paper's model-based design-time analysis (the
/// DvfsUfsPlugin frontend loop) behind the common Tuner seam. A fresh
/// plugin is constructed per tune() call, exactly like the hand-wired
/// drivers did, so results are bit-identical to the pre-refactor path.
///
/// The trained energy model is obtained lazily through `model`, so building
/// a DtaTuner (e.g. by listing a registry) costs nothing until it actually
/// tunes -- the other strategies never pay for model training.
class DtaTuner final : public Tuner {
 public:
  using ModelProvider = std::function<const model::EnergyModel&()>;

  DtaTuner(hwsim::NodeSimulator& node, ModelProvider model,
           core::DvfsUfsPlugin::Options options = {});

  [[nodiscard]] std::string_view name() const override { return "dta"; }
  [[nodiscard]] TuningOutcome tune(const TuningRequest& request) override;

 private:
  hwsim::NodeSimulator& node_;
  ModelProvider model_;
  core::DvfsUfsPlugin::Options options_;
};

}  // namespace ecotune::tuners
