#pragma once

#include <vector>

#include "model/dataset.hpp"
#include "stats/regression.hpp"

namespace ecotune::model {

/// The regression baseline of Chadha et al. (IPDPSW'17), which the paper
/// compares its neural network against: two separate linear models (power
/// and time) over the same nine features; normalized energy is predicted as
/// their product. Trained with 10-fold CV with random indexing in the
/// paper's comparison (avg MAPE 7.54 vs the network's 5.20).
class RegressionEnergyModel {
 public:
  /// Fits both linear models on `train`.
  void train(const EnergyDataset& train);

  /// Predicted normalized energy = predicted power x predicted time.
  [[nodiscard]] double predict(const std::vector<double>& features) const;
  [[nodiscard]] std::vector<double> predict_all(
      const EnergyDataset& ds) const;

 private:
  stats::OlsResult power_;
  stats::OlsResult time_;
  bool trained_ = false;
};

}  // namespace ecotune::model
