// Contract tests for the SIMD kernel layer (common/simd.hpp +
// nn/kernels.*): level parsing and dispatch, the documented 9-5-5-1
// blocked parameter layout, and the one-tier determinism contract — the
// engine on VS lanes (kScalar) and on V4 registers (kAvx2) produces the
// same bits, asserted with EXPECT_EQ over training losses, serialized
// weights and ADAM moments, batched and single-row inference.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "nn/kernels.hpp"
#include "nn/mlp.hpp"
#include "stats/linalg.hpp"

namespace ecotune::nn {
namespace {

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> out{simd::Level::kScalar};
  if (simd::supported(simd::Level::kAvx2)) out.push_back(simd::Level::kAvx2);
  return out;
}

TEST(SimdLevel, ParseAcceptsDocumentedSpellings) {
  EXPECT_EQ(simd::parse_level("off"), simd::Level::kScalar);
  EXPECT_EQ(simd::parse_level("scalar"), simd::Level::kScalar);
  EXPECT_EQ(simd::parse_level("avx2"), simd::Level::kAvx2);
  EXPECT_EQ(simd::parse_level(""), simd::detect_best());
  EXPECT_EQ(simd::parse_level("auto"), simd::detect_best());
  EXPECT_EQ(simd::parse_level("on"), simd::detect_best());
}

TEST(SimdLevel, ParseRejectsTypos) {
  // A typo must not silently fall back to some other code path.
  EXPECT_THROW((void)simd::parse_level("avx512"), ConfigError);
  EXPECT_THROW((void)simd::parse_level("OFF"), ConfigError);
  EXPECT_THROW((void)simd::parse_level("none"), ConfigError);
  // The retired SSE2 level is a typo like any other.
  EXPECT_THROW((void)simd::parse_level("sse2"), ConfigError);
}

TEST(SimdLevel, DetectBestIsSupportedAndOrdered) {
  EXPECT_TRUE(simd::supported(simd::detect_best()));
  EXPECT_TRUE(simd::supported(simd::Level::kScalar));
}

TEST(SimdLevel, ScopedLevelDrivesDispatch) {
  for (const simd::Level level : supported_levels()) {
    const simd::ScopedLevel scope(level);
    EXPECT_EQ(simd::active_level(), level);
  }
}

TEST(SimdKernels, TrainPlanPinsTheDocumented9551Layout) {
  // The offsets documented in nn/kernels.hpp (and mirrored as constexpr
  // by the engine's static geometry): head regions first, then the
  // lane-blocked weight blocks.
  const kernels::TrainPlan plan = kernels::build_train_plan(
      {9, 5, 5, 1}, {1, 1, 1}, 1e-3, 0.9, 0.999, 1e-8);
  EXPECT_EQ(plan.head_size, 48u);
  EXPECT_EQ(plan.total, 104u);
  ASSERT_EQ(plan.layers.size(), 3u);
  EXPECT_EQ(plan.layers[0].bias_off, 0u);
  EXPECT_EQ(plan.layers[0].tail_off, 8u);
  EXPECT_EQ(plan.layers[0].block_off, 48u);
  EXPECT_EQ(plan.layers[1].bias_off, 20u);
  EXPECT_EQ(plan.layers[1].tail_off, 28u);
  EXPECT_EQ(plan.layers[1].block_off, 84u);
  EXPECT_EQ(plan.layers[2].bias_off, 36u);
  EXPECT_EQ(plan.layers[2].tail_off, 40u);
  EXPECT_EQ(plan.layers[2].nb, 0u);
  EXPECT_EQ(plan.layers[2].tail, 1u);
}

// --- Cross-level equivalence ----------------------------------------------
//
// Every shape below trains and infers at kScalar and at kAvx2 from the same
// seeds; every observable must match bit for bit. {9,5,5,1} with a ReLU
// output runs the engine's constexpr 9-5-5-1 geometry, every other case
// the runtime geometry; the shapes cover full lane blocks, tail rows
// (1, 2 and 3 leftover rows), interleaved tails, and depths 2 to 4.

struct Case {
  std::vector<std::size_t> sizes;
  bool relu_output;
};

std::vector<Case> equivalence_cases() {
  std::vector<Case> out;
  for (const auto& sizes : std::vector<std::vector<std::size_t>>{
           {9, 5, 5, 1}, {4, 8, 1}, {2, 3, 3, 3, 1}, {3, 6, 1}, {5, 7, 9, 1}})
    for (const bool relu_output : {true, false})
      out.push_back({sizes, relu_output});
  return out;
}

std::string describe(const Case& c) {
  std::string out;
  for (const std::size_t w : c.sizes) out += std::to_string(w) + "-";
  return out + (c.relu_output ? "relu" : "linear");
}

/// Everything a caller can observe of one training run.
struct Trace {
  std::vector<double> losses;  ///< train_sample and train_epoch, call order
  std::vector<double> batch;   ///< forward_batch over the probe rows
  std::vector<double> points;  ///< predict() per probe row
  std::string dump;            ///< to_json(): weights, ADAM moments, timestep
  long timestep = 0;
};

/// Trains at `level`: three single samples on the fresh net (ADAM bias
/// correction active), 48 epochs over 512 rows — enough ADAM steps on every
/// shape (>= 2 per sample) for both corrections to saturate, so the
/// engine's steady-state path runs too — then three more single samples,
/// and probes inference on 61 rows (a partial last lane group).
Trace run_at(simd::Level level, const Case& c, std::size_t seed) {
  const simd::ScopedLevel scope(level);
  MlpConfig cfg;
  cfg.layer_sizes = c.sizes;
  cfg.relu_output = c.relu_output;
  Rng rng(seed);
  Mlp net(cfg, rng);
  Rng data(seed + 1);
  stats::Matrix x(512, c.sizes.front());
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t j = 0; j < x.cols(); ++j) x(r, j) = data.normal(0.0, 1.0);
    y[r] = data.uniform(0.5, 1.5);
  }
  stats::Matrix probe(61, x.cols());
  for (std::size_t r = 0; r < probe.rows(); ++r)
    for (std::size_t j = 0; j < probe.cols(); ++j)
      probe(r, j) = data.normal(0.0, 2.0);

  Trace t;
  const auto one = [&](std::size_t r) {
    t.losses.push_back(net.train_sample(x.row(r), {y[r]}));
  };
  for (std::size_t r = 0; r < 3; ++r) one(r);
  Rng shuffle(seed + 2);
  for (int e = 0; e < 48; ++e)
    t.losses.push_back(net.train_epoch(x, y, shuffle));
  for (std::size_t r = 3; r < 6; ++r) one(r);
  Workspace ws;
  t.batch = net.forward_batch(probe, ws);
  for (std::size_t r = 0; r < probe.rows(); ++r)
    t.points.push_back(net.predict(probe.row(r)));
  const Json json = net.to_json();
  t.dump = json.dump();
  t.timestep = json.at("timestep").as_int();
  return t;
}

TEST(SimdKernels, TrainingIsBitIdenticalAcrossLevels) {
  if (!simd::supported(simd::Level::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2+FMA";
  }
  std::size_t seed = 500;
  for (const Case& c : equivalence_cases()) {
    const Trace scalar = run_at(simd::Level::kScalar, c, seed);
    const Trace avx2 = run_at(simd::Level::kAvx2, c, seed);
    seed += 10;
    // 1 - 0.999^t rounds to exactly 1.0 from t ~ 37400 on: past that the
    // engine runs its steady-state (fast) schedule.
    EXPECT_GT(scalar.timestep, 37500) << describe(c);
    EXPECT_EQ(scalar.losses, avx2.losses) << describe(c);
    EXPECT_EQ(scalar.dump, avx2.dump) << describe(c);
  }
}

TEST(SimdKernels, InferenceIsBitIdenticalAcrossLevels) {
  if (!simd::supported(simd::Level::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2+FMA";
  }
  std::size_t seed = 700;
  for (const Case& c : equivalence_cases()) {
    const Trace scalar = run_at(simd::Level::kScalar, c, seed);
    const Trace avx2 = run_at(simd::Level::kAvx2, c, seed);
    seed += 10;
    EXPECT_EQ(scalar.batch, avx2.batch) << describe(c);
    EXPECT_EQ(scalar.points, avx2.points) << describe(c);
    // predict() is a one-row lane group: the batched bits, row by row.
    EXPECT_EQ(scalar.points, scalar.batch) << describe(c);
  }
}

}  // namespace
}  // namespace ecotune::nn
