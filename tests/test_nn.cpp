#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "nn/mlp.hpp"
#include "stats/metrics.hpp"

namespace ecotune::nn {
namespace {

/// One ADAM step on one sample: a one-row epoch, which draws no shuffle.
double train_one(Mlp& net, const std::vector<double>& x, double y) {
  stats::Matrix row(1, x.size());
  for (std::size_t j = 0; j < x.size(); ++j) row(0, j) = x[j];
  Rng no_draws(0);
  return net.train_epoch(row, {y}, no_draws);
}

/// Row `r` of `m` as a vector copy (the predict(std::vector) input).
std::vector<double> row_of(const stats::Matrix& m, std::size_t r) {
  const auto cols = static_cast<std::ptrdiff_t>(m.cols());
  const auto first = m.data().begin() + static_cast<std::ptrdiff_t>(r) * cols;
  return {first, first + cols};
}

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> out{simd::Level::kScalar};
  if (simd::supported(simd::Level::kAvx2)) out.push_back(simd::Level::kAvx2);
  return out;
}

TEST(Mlp, PaperArchitectureShape) {
  Rng rng(1);
  const Mlp net(MlpConfig{}, rng);
  EXPECT_EQ(net.input_size(), 9u);
  EXPECT_EQ(net.output_size(), 1u);
  // 9*5+5 + 5*5+5 + 5*1+1 = 50 + 30 + 6 = 86 parameters.
  std::size_t parameters = 0;
  const Json json = net.to_json();
  for (const auto& layer : json.at("layers").as_array()) {
    const auto& w = layer.at("w").as_array();
    parameters += w.size() * w.front().as_array().size() +
                  layer.at("b").as_array().size();
  }
  EXPECT_EQ(parameters, 86u);
}

TEST(Mlp, HeInitializationStatistics) {
  MlpConfig cfg;
  cfg.layer_sizes = {100, 200};
  cfg.relu_output = false;
  Rng rng(2);
  const Mlp net(cfg, rng);
  // Serialize to inspect weights: stddev should be ~sqrt(2/100) = 0.1414.
  const Json j = net.to_json();
  const auto& w = j.at("layers").as_array()[0].at("w").as_array();
  double sum = 0.0, sq = 0.0;
  int n = 0;
  for (const auto& row : w) {
    for (const auto& v : row.as_array()) {
      sum += v.as_number();
      sq += v.as_number() * v.as_number();
      ++n;
    }
  }
  const double mean = sum / n;
  const double sd = std::sqrt(sq / n - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(sd, std::sqrt(2.0 / 100.0), 0.01);
  // Biases start at zero.
  for (const auto& b : j.at("layers").as_array()[0].at("b").as_array())
    EXPECT_DOUBLE_EQ(b.as_number(), 0.0);
}

TEST(Mlp, ReluOutputIsNonNegative) {
  Rng rng(3);
  const Mlp net(MlpConfig{}, rng);
  Rng probe(4);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> x(9);
    for (auto& v : x) v = probe.normal(0, 2);
    EXPECT_GE(net.predict(x), 0.0);
  }
}

TEST(Mlp, ValidatesInputSizes) {
  Rng rng(5);
  Mlp net(MlpConfig{}, rng);
  EXPECT_THROW((void)net.predict({1.0, 2.0}), PreconditionError);
  EXPECT_THROW(train_one(net, {1.0}, 1.0), PreconditionError);
}

TEST(Mlp, LearnsLinearFunction) {
  MlpConfig cfg;
  cfg.layer_sizes = {2, 8, 1};
  Rng rng(6);
  Mlp net(cfg, rng);

  Rng data_rng(7);
  stats::Matrix x(256, 2);
  std::vector<double> y(256);
  for (std::size_t i = 0; i < 256; ++i) {
    x(i, 0) = data_rng.uniform(0, 1);
    x(i, 1) = data_rng.uniform(0, 1);
    y[i] = 0.5 + 0.3 * x(i, 0) + 0.2 * x(i, 1);
  }
  Rng shuffle(8);
  double first_loss = net.train_epoch(x, y, shuffle);
  double last_loss = first_loss;
  for (int e = 0; e < 200; ++e) last_loss = net.train_epoch(x, y, shuffle);
  EXPECT_LT(last_loss, first_loss * 0.05);
  EXPECT_NEAR(net.predict({0.5, 0.5}), 0.75, 0.05);
}

TEST(Mlp, LearnsNonlinearEnergyShapedSurface) {
  // A paper-like target: U-shaped normalized energy in "frequency".
  MlpConfig cfg;
  cfg.layer_sizes = {1, 8, 8, 1};
  cfg.learning_rate = 3e-3;
  Rng rng(9);
  Mlp net(cfg, rng);

  stats::Matrix x(141, 1);
  std::vector<double> y(141);
  for (int i = 0; i <= 140; ++i) {
    const double f = 1.2 + i * 0.01;  // 1.2 .. 2.6 "GHz"
    x(static_cast<std::size_t>(i), 0) = (f - 1.9) / 0.4;  // standardized-ish
    y[static_cast<std::size_t>(i)] = 0.8 + 0.5 * (f - 1.9) * (f - 1.9);
  }
  Rng shuffle(10);
  for (int e = 0; e < 400; ++e) net.train_epoch(x, y, shuffle);

  std::vector<double> pred, truth;
  for (std::size_t i = 0; i < 141; ++i) {
    pred.push_back(net.predict(row_of(x, i)));
    truth.push_back(y[i]);
  }
  EXPECT_LT(stats::mape(truth, pred), 3.0);
  // The learned surface must preserve the argmin location approximately.
  std::size_t best = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    if (pred[i] < pred[best]) best = i;
  EXPECT_NEAR(1.2 + static_cast<double>(best) * 0.01, 1.9, 0.15);
}

TEST(Mlp, TrainSampleReturnsDecreasingLossOnRepeat) {
  MlpConfig cfg;
  cfg.layer_sizes = {2, 4, 1};
  cfg.relu_output = false;  // a ReLU output can die on a single sample
  Rng rng(11);
  Mlp net(cfg, rng);
  const std::vector<double> x{0.3, 0.6};
  const double l0 = train_one(net, x, 1.5);
  double l = l0;
  for (int i = 0; i < 300; ++i) l = train_one(net, x, 1.5);
  EXPECT_LT(l, l0 * 0.01);
}

TEST(Mlp, SerializationRoundTripPreservesPredictions) {
  Rng rng(12);
  Mlp net(MlpConfig{}, rng);
  // Train briefly so weights are not just the init.
  stats::Matrix x(32, 9);
  std::vector<double> y(32);
  Rng d(13);
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = 0; j < 9; ++j) x(i, j) = d.normal(0, 1);
    y[i] = 1.0 + 0.1 * x(i, 0);
  }
  Rng shuffle(14);
  net.train_epoch(x, y, shuffle);

  const Mlp restored = Mlp::from_json(Json::parse(net.to_json().dump()));
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(restored.predict(row_of(x, i)),
                     net.predict(row_of(x, i)));
}

TEST(Mlp, DeterministicTrainingForSameSeeds) {
  auto make_trained = [] {
    Rng rng(15);
    Mlp net(MlpConfig{}, rng);
    stats::Matrix x(16, 9);
    std::vector<double> y(16);
    Rng d(16);
    for (std::size_t i = 0; i < 16; ++i) {
      for (std::size_t j = 0; j < 9; ++j) x(i, j) = d.normal(0, 1);
      y[i] = d.uniform(0.5, 1.5);
    }
    Rng shuffle(17);
    for (int e = 0; e < 5; ++e) net.train_epoch(x, y, shuffle);
    return net.predict(std::vector<double>(9, 0.1));
  };
  EXPECT_DOUBLE_EQ(make_trained(), make_trained());
}

TEST(Mlp, RejectsDegenerateConfig) {
  MlpConfig cfg;
  cfg.layer_sizes = {9};
  Rng rng(18);
  EXPECT_THROW(Mlp(cfg, rng), PreconditionError);
}

TEST(Mlp, ForwardBatchMatchesScalarBitwise) {
  // The batched forward must be indistinguishable from per-point
  // predict() calls: exact equality (EXPECT_EQ on doubles), across shapes,
  // activation configurations and every supported dispatch level.
  const std::vector<std::vector<std::size_t>> shapes{
      {9, 5, 5, 1}, {4, 8, 1}, {2, 3, 3, 3, 1}};
  for (const simd::Level level : supported_levels()) {
    const simd::ScopedLevel scope(level);
    for (std::size_t s = 0; s < shapes.size(); ++s) {
      for (bool relu_out : {true, false}) {
        MlpConfig cfg;
        cfg.layer_sizes = shapes[s];
        cfg.relu_output = relu_out;
        Rng rng(100 + 10 * s + (relu_out ? 1 : 0));
        const Mlp net(cfg, rng);
        Rng data(200 + s);
        stats::Matrix x(64, shapes[s].front());
        for (std::size_t r = 0; r < x.rows(); ++r)
          for (std::size_t c = 0; c < x.cols(); ++c)
            x(r, c) = data.normal(0.0, 2.0);
        Workspace ws;
        std::vector<double> batch(x.rows());
        net.forward_batch(x, std::span<double>(batch), ws);
        for (std::size_t r = 0; r < x.rows(); ++r) {
          EXPECT_EQ(batch[r], net.predict(row_of(x, r)))
              << simd::to_string(level) << " shape " << s << " relu_out "
              << relu_out << " row " << r;
        }
      }
    }
  }
}

/// Training trajectory of the engine with a frozen rounding sequence (one
/// fma per multiply-accumulate, fixed order): exactly reproducible on any
/// machine and identical at every dispatch level. These values were
/// captured when the fused engine landed; a mismatch means the rounding
/// sequence changed (reordered accumulation, a dropped fuse, ...), which
/// would also break warm-restart byte-identity.
constexpr double kGoldenLosses[6] = {
    0.59483072942753346,  0.10501934169583925, 0.09149434761043107,
    0.08795480549664586,  0.086658586035511534, 0.085485810282437971};

/// Shared scenario for the golden-loss-sequence tests below: six epochs at
/// the given dispatch level must reproduce kGoldenLosses bit for bit.
void run_golden_sequence(simd::Level level) {
  const std::size_t n = 2048;
  Rng data_rng(0xDA7A);
  stats::Matrix x(n, 9);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 9; ++j) x(i, j) = data_rng.normal(0.0, 1.0);
    y[i] = data_rng.uniform(0.5, 1.5);
  }
  const simd::ScopedLevel scope(level);
  Rng rng(0x60D1);
  Mlp net(MlpConfig{}, rng);
  Rng shuffle(0x60D2);
  for (int e = 0; e < 6; ++e) {
    EXPECT_EQ(net.train_epoch(x, y, shuffle), kGoldenLosses[e])
        << simd::to_string(level) << " epoch " << e;
  }
}

TEST(Mlp, TrainEpochGoldenLossSequence) {
  run_golden_sequence(simd::Level::kScalar);
}

TEST(Mlp, TrainEpochGoldenLossSequenceAvx2Engine) {
  if (!simd::supported(simd::Level::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2+FMA";
  }
  run_golden_sequence(simd::Level::kAvx2);
}

TEST(Mlp, AdamStateSurvivesSerializationRoundTrip) {
  // A restored network must resume training exactly where the original
  // left off: optimizer moments, timestep and hyper-parameters all travel
  // through JSON (they used to be dropped, silently resetting ADAM).
  MlpConfig cfg;
  cfg.layer_sizes = {4, 6, 1};
  cfg.beta1 = 0.85;  // non-defaults must round-trip too
  cfg.epsilon = 1e-7;
  Rng rng(31);
  Mlp net(cfg, rng);
  stats::Matrix x(64, 4);
  std::vector<double> y(64);
  Rng d(32);
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = d.normal(0.0, 1.0);
    y[i] = d.uniform(0.0, 2.0);
  }
  Rng shuffle(33);
  for (int e = 0; e < 3; ++e) net.train_epoch(x, y, shuffle);

  Mlp restored = Mlp::from_json(Json::parse(net.to_json().dump()));
  EXPECT_EQ(restored.config().beta1, cfg.beta1);
  EXPECT_EQ(restored.config().epsilon, cfg.epsilon);
  Rng sa(34), sb(34);
  for (int e = 0; e < 3; ++e) {
    EXPECT_EQ(net.train_epoch(x, y, sa), restored.train_epoch(x, y, sb))
        << "diverged at continued epoch " << e;
  }
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(restored.predict(row_of(x, i)), net.predict(row_of(x, i)));
}

TEST(Mlp, LoadsLegacyJsonWithoutOptimizerState) {
  // Files written before the optimizer state was serialized carry only
  // weights/biases; they must load with default ADAM hyper-parameters and
  // cold moments.
  Rng rng(41);
  Mlp net(MlpConfig{}, rng);
  const Json full = net.to_json();
  Json legacy = Json::object();
  legacy["layer_sizes"] = full.at("layer_sizes");
  legacy["relu_output"] = full.at("relu_output");
  legacy["learning_rate"] = full.at("learning_rate");
  Json layers = Json::array();
  for (const auto& lj : full.at("layers").as_array()) {
    Json l = Json::object();
    l["w"] = lj.at("w");
    l["b"] = lj.at("b");
    l["relu"] = lj.at("relu");
    layers.push_back(std::move(l));
  }
  legacy["layers"] = std::move(layers);

  Mlp restored = Mlp::from_json(legacy);
  EXPECT_EQ(restored.config().beta1, MlpConfig{}.beta1);
  EXPECT_EQ(restored.config().beta2, MlpConfig{}.beta2);
  EXPECT_EQ(restored.config().epsilon, MlpConfig{}.epsilon);
  Rng probe(42);
  for (int i = 0; i < 16; ++i) {
    std::vector<double> p(9);
    for (auto& v : p) v = probe.normal(0.0, 1.0);
    EXPECT_EQ(restored.predict(p), net.predict(p));
  }
  // And it still trains (cold optimizer, but functional).
  EXPECT_GE(train_one(restored, std::vector<double>(9, 0.2), 1.0), 0.0);
}

TEST(Mlp, WorkspaceRebindsAcrossNetworkShapes) {
  // One caller-owned workspace serving networks of different geometry must
  // regrow transparently and stay correct.
  MlpConfig small;
  small.layer_sizes = {2, 3, 1};
  MlpConfig big;
  big.layer_sizes = {9, 5, 5, 1};
  Rng r1(51), r2(52);
  const Mlp a(small, r1);
  const Mlp b(big, r2);
  Workspace ws;
  const std::vector<double> xa{0.4, -0.7};
  const std::vector<double> xb(9, 0.3);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(a.predict(std::span<const double>(xa), ws), a.predict(xa));
    EXPECT_EQ(b.predict(std::span<const double>(xb), ws), b.predict(xb));
  }
}

}  // namespace
}  // namespace ecotune::nn
