#include "model/energy_model.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "model/features.hpp"

namespace ecotune::model {

namespace {

/// Per-thread scratch of the batched prediction path: scaled feature matrix
/// and the NN workspace. Thread-local so a shared trained model can serve
/// concurrent sweep tasks allocation-free.
struct PredictScratch {
  stats::Matrix scaled;
  nn::Workspace ws;
};

PredictScratch& predict_scratch() {
  thread_local PredictScratch scratch;
  return scratch;
}

}  // namespace

EnergyModel::EnergyModel(EnergyModelConfig config) : config_(config) {
  ensure(config_.ensemble >= 1, "EnergyModel: ensemble must be >= 1");
}

void EnergyModel::train(const EnergyDataset& train) {
  this->train(train, config_.epochs);
}

void EnergyModel::train(const EnergyDataset& train, int epochs) {
  ensure(!train.samples.empty(), "EnergyModel::train: empty training set");
  const stats::Matrix raw = train.feature_matrix();
  ensure(raw.cols() == config_.mlp.layer_sizes.front(),
         "EnergyModel::train: feature width does not match network input");
  scaler_.fit(raw);
  const stats::Matrix x = scaler_.transform(raw);
  const std::vector<double> y = train.labels();

  // Train a pool of candidates from distinct seeds and keep the best
  // `ensemble` of them by training loss. This serves two purposes: a small
  // ReLU-output network can die on an unlucky initialization (all-zero
  // output, zero gradient), and averaging a few healthy members stabilizes
  // the argmin over the nearly flat energy surface.
  //
  // The candidates are embarrassingly independent (per-attempt init and
  // shuffle seeds), so they train concurrently over config_.jobs workers;
  // the ordered reduction keeps the pool in attempt order, which makes the
  // result bitwise identical for any job count.
  const int pool_size = config_.ensemble + 3;
  auto candidates = parallel_map_ordered(
      static_cast<std::size_t>(pool_size),
      [&](std::size_t attempt) {
        Rng init_rng(config_.seed + 0x9E3779B9ULL * attempt);
        nn::Mlp candidate(config_.mlp, init_rng);
        Rng shuffle_rng((config_.seed ^ 0x5A5A5A5AULL) + attempt);
        double loss = 0.0;
        for (int e = 0; e < epochs; ++e)
          loss = candidate.train_epoch(x, y, shuffle_rng);
        return std::optional<std::pair<double, nn::Mlp>>(
            std::in_place, loss, std::move(candidate));
      },
      config_.jobs);
  std::vector<std::pair<double, nn::Mlp>> pool;
  pool.reserve(static_cast<std::size_t>(pool_size));
  for (auto& c : candidates) pool.push_back(std::move(*c));
  std::sort(pool.begin(), pool.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Reject members that failed to fit (dead networks, divergence): anything
  // clearly worse than the best candidate.
  const double best_loss = pool.front().first;
  const double cutoff = std::max(2.0 * best_loss, best_loss + 0.005);
  nets_.clear();
  for (auto& [loss, net] : pool) {
    if (static_cast<int>(nets_.size()) >= config_.ensemble) break;
    if (loss > cutoff && !nets_.empty()) break;
    nets_.push_back(std::move(net));
  }
  ensure(!nets_.empty(), "EnergyModel::train: no candidate converged");
  set_trained();
}

void EnergyModel::set_trained() {
  trained_ = true;
  canonical_digest_ = Fingerprint::Text::of(to_json().dump(-1));
}

void EnergyModel::predict_rows(const stats::Matrix& raw,
                               std::span<double> out) const {
  ensure(trained_, "EnergyModel::predict: model not trained");
  ensure(out.size() == raw.rows(),
         "EnergyModel::predict_rows: output size mismatch");
  const std::size_t n = raw.rows();
  if (n == 0) return;
  PredictScratch& s = predict_scratch();
  scaler_.transform_into(raw, s.scaled);
  // Fused ensemble sweep: one pass over the shared scaled matrix, members
  // accumulated in net order per row — bitwise identical to summing the
  // per-net forward_batch results.
  nn::forward_batch_ensemble(
      std::span<const nn::Mlp>(nets_.data(), nets_.size()), s.scaled, out,
      s.ws, /*mean=*/true);
}

double EnergyModel::predict(const std::vector<double>& features) const {
  ensure(trained_, "EnergyModel::predict: model not trained");
  thread_local stats::Matrix one;
  if (one.rows() != 1 || one.cols() != features.size())
    one = stats::Matrix(1, features.size());
  std::copy(features.begin(), features.end(), one.row_span(0).begin());
  double out = 0.0;
  predict_rows(one, std::span<double>(&out, 1));
  return out;
}

std::vector<double> EnergyModel::predict_batch(
    const stats::Matrix& raw) const {
  std::vector<double> out(raw.rows());
  predict_rows(raw, std::span<double>(out));
  return out;
}

std::vector<double> EnergyModel::predict_all(const EnergyDataset& ds) const {
  if (ds.samples.empty()) return {};
  return predict_batch(ds.feature_matrix());
}

void EnergyModel::fill_grid_features(
    const std::map<std::string, double>& counter_rates,
    const hwsim::CpuSpec& spec, stats::Matrix& rows,
    std::size_t first_row) const {
  // Resolve the counter rates once instead of one map walk per grid cell.
  const auto base =
      build_features(counter_rates, paper_feature_events(),
                     spec.core_grid.values().front(),
                     spec.uncore_grid.values().front());
  const std::size_t k = base.size();
  ensure(rows.cols() == k, "EnergyModel: grid feature width mismatch");
  std::size_t r = first_row;
  for (auto cf : spec.core_grid.values()) {
    for (auto ucf : spec.uncore_grid.values()) {
      auto row = rows.row_span(r++);
      std::copy(base.begin(), base.end(), row.begin());
      row[k - 2] = cf.as_ghz();
      row[k - 1] = ucf.as_ghz();
    }
  }
}

FrequencyRecommendation EnergyModel::recommend(
    const std::map<std::string, double>& counter_rates,
    const hwsim::CpuSpec& spec) const {
  ensure(trained_, "EnergyModel::recommend: model not trained");
  return recommend_many({counter_rates}, spec).front();
}

std::vector<FrequencyRecommendation> EnergyModel::recommend_many(
    const std::vector<std::map<std::string, double>>& rate_sets,
    const hwsim::CpuSpec& spec) const {
  ensure(trained_, "EnergyModel::recommend: model not trained");
  if (rate_sets.empty()) return {};
  const auto& cfs = spec.core_grid.values();
  const auto& ucfs = spec.uncore_grid.values();
  const std::size_t grid = cfs.size() * ucfs.size();
  const std::size_t width = paper_feature_events().size() + 2;
  stats::Matrix rows(rate_sets.size() * grid, width);
  for (std::size_t s = 0; s < rate_sets.size(); ++s)
    fill_grid_features(rate_sets[s], spec, rows, s * grid);
  const std::vector<double> energy = predict_batch(rows);

  // Per-signature argmin over its grid slice, scanned in the same CF-major
  // order (and with the same strict '<') as the historical per-point sweep.
  std::vector<FrequencyRecommendation> recs;
  recs.reserve(rate_sets.size());
  for (std::size_t s = 0; s < rate_sets.size(); ++s) {
    FrequencyRecommendation best;
    best.predicted_normalized_energy = std::numeric_limits<double>::max();
    std::size_t r = s * grid;
    for (auto cf : cfs) {
      for (auto ucf : ucfs) {
        const double e = energy[r++];
        if (e < best.predicted_normalized_energy) {
          best = {cf, ucf, e};
        }
      }
    }
    recs.push_back(best);
  }
  return recs;
}

Json EnergyModel::to_json() const {
  ensure(trained_, "EnergyModel::to_json: model not trained");
  Json j = Json::object();
  j["scaler"] = scaler_.to_json();
  Json networks = Json::array();
  for (const auto& net : nets_) networks.push_back(net.to_json());
  j["networks"] = std::move(networks);
  j["epochs"] = config_.epochs;
  return j;
}

EnergyModel EnergyModel::from_json(const Json& j) {
  EnergyModel m;
  m.scaler_ = stats::StandardScaler::from_json(j.at("scaler"));
  if (j.contains("networks")) {
    for (const auto& nj : j.at("networks").as_array())
      m.nets_.push_back(nn::Mlp::from_json(nj));
  } else {
    // Backwards compatibility with single-network files.
    m.nets_.push_back(nn::Mlp::from_json(j.at("network")));
  }
  ensure(!m.nets_.empty(), "EnergyModel::from_json: no networks");
  m.config_.epochs = j.at("epochs").as_int();
  m.config_.ensemble = static_cast<int>(m.nets_.size());
  m.set_trained();
  return m;
}

const Fingerprint::Text& EnergyModel::canonical_digest() const {
  ensure(trained_, "EnergyModel::canonical_digest: model not trained");
  return canonical_digest_;
}

}  // namespace ecotune::model
