#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/fingerprint.hpp"
#include "common/json.hpp"
#include "hwsim/cpu_spec.hpp"
#include "model/dataset.hpp"
#include "nn/mlp.hpp"
#include "stats/scaler.hpp"

namespace ecotune::model {

/// Configuration of the neural-network energy model (paper Sec. IV-C and
/// V-B defaults).
struct EnergyModelConfig {
  nn::MlpConfig mlp;   ///< 9-5-5-1, ReLU, ADAM lr 1e-3
  int epochs = 5;      ///< LOOCV uses 5 epochs; the final model uses 10
  /// Members of the seed ensemble whose predictions are averaged. The paper
  /// trains a single network; with so small a network the argmin over the
  /// nearly flat energy surface is noisy across initializations, so the
  /// plugin averages a small ensemble by default. Set to 1 for the
  /// paper-exact single-network setup.
  int ensemble = 5;
  std::uint64_t seed = 0x4E4EULL;
  /// Concurrent candidate trainings in train() (1 = serial, 0 = hardware
  /// concurrency). Every candidate is seeded independently and the pool is
  /// reduced in candidate order, so the trained model is bitwise identical
  /// for any value.
  int jobs = 1;
};

/// Recommendation produced by sweeping the model over the frequency grids.
struct FrequencyRecommendation {
  CoreFreq cf;
  UncoreFreq ucf;
  double predicted_normalized_energy = 0.0;
};

/// The paper's energy model: a StandardScaler (fit on the training set) in
/// front of the 2-hidden-layer MLP predicting normalized node energy from
/// seven counter rates plus the core and uncore frequency. Sweeping all
/// frequency combinations through the network and taking the argmin yields
/// the plugin's global frequency recommendation (Sec. III-C).
///
/// All prediction entry points funnel through one batched path: the feature
/// matrix is scaled once, each ensemble member sweeps every layer over the
/// whole batch, and the ensemble mean accumulates in member order — bitwise
/// identical to scaling and forwarding each point by itself.
class EnergyModel {
 public:
  explicit EnergyModel(EnergyModelConfig config = {});

  /// Fits scaler and network on `train` for `config.epochs` epochs.
  void train(const EnergyDataset& train);
  /// As train(), overriding the epoch count (paper: 5 for LOOCV, 10 final).
  void train(const EnergyDataset& train, int epochs);

  [[nodiscard]] bool trained() const { return trained_; }

  /// Predicts normalized energy for one raw (unscaled) feature vector.
  [[nodiscard]] double predict(const std::vector<double>& features) const;

  /// Batched prediction: one normalized energy per row of `raw` (raw,
  /// unscaled features). Bitwise identical to predict() on each row.
  [[nodiscard]] std::vector<double> predict_batch(
      const stats::Matrix& raw) const;

  /// Predictions for a whole dataset (validation convenience).
  [[nodiscard]] std::vector<double> predict_all(
      const EnergyDataset& ds) const;

  /// Sweeps every supported (CF, UCF) combination for an application whose
  /// calibration counter rates are `counter_rates` and returns the
  /// energy-minimal point.
  [[nodiscard]] FrequencyRecommendation recommend(
      const std::map<std::string, double>& counter_rates,
      const hwsim::CpuSpec& spec) const;

  /// recommend() for several counter-rate signatures at once (the plugin's
  /// per-region mode): all grids are swept in a single batch. Entry k of
  /// the result corresponds to rate_sets[k].
  [[nodiscard]] std::vector<FrequencyRecommendation> recommend_many(
      const std::vector<std::map<std::string, double>>& rate_sets,
      const hwsim::CpuSpec& spec) const;

  /// Serialization of scaler + network weights (the "tuning plugin input").
  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static EnergyModel from_json(const Json& j);

  /// Fingerprint::Text::of(to_json().dump(-1)), hashed once when the model
  /// was trained or loaded. Cache fingerprints fold this in, so they
  /// neither re-serialize nor re-hash the weights on every request.
  [[nodiscard]] const Fingerprint::Text& canonical_digest() const;

 private:
  /// The shared batched core: scales `raw` (n x features) once and writes
  /// the ensemble-mean prediction per row into `out` (out.size() == n).
  void predict_rows(const stats::Matrix& raw, std::span<double> out) const;
  /// Marks the model trained and hashes its canonical text.
  void set_trained();
  /// Builds the CF x UCF grid feature matrix (CF-major, UCF-minor row
  /// order) for one counter-rate signature into `rows` starting at
  /// `first_row`.
  void fill_grid_features(const std::map<std::string, double>& counter_rates,
                          const hwsim::CpuSpec& spec, stats::Matrix& rows,
                          std::size_t first_row) const;

  EnergyModelConfig config_;
  stats::StandardScaler scaler_;
  std::vector<nn::Mlp> nets_;  ///< ensemble members (>= 1 when trained)
  bool trained_ = false;
  /// Set whenever trained_ becomes true (set_trained()).
  Fingerprint::Text canonical_digest_;
};

}  // namespace ecotune::model
