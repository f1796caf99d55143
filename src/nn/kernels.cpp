#include "nn/kernels.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace ecotune::nn::kernels {

namespace {

constexpr std::size_t round_up4(std::size_t n) {
  return (n + 3) & ~static_cast<std::size_t>(3);
}

/// Flushes a denormal to +0.0 (the scalar twin of V::flush_denormal). Long
/// trainings park the ADAM moments of near-dead weights in the denormal
/// range, where every touch takes a microcode assist (~2x on the whole
/// epoch, measured); a denormal moment cannot move a normal-range weight by
/// even one ULP (the largest step it can induce is lr * DBL_TRUE_MIN /
/// epsilon ~= 1e-303), so zeroing it keeps the training trajectory intact
/// and the arithmetic fast. A denormal backward delta is flushed for the
/// same reason.
inline double flushd(double v) {
  return (v < std::numeric_limits<double>::min() &&
          v > -std::numeric_limits<double>::min())
             ? 0.0
             : v;
}

/// Fixed-depth constexpr mirror of TrainPlan, built by the same offset
/// algorithm as build_train_plan. The 9-5-5-1 instance below lets the
/// engine templates constant-fold the paper architecture's entire layout
/// (every loop bound and buffer offset), which is worth ~2x on the hot
/// benchmarks versus the runtime-geometry instantiation.
template <std::size_t L>
struct PlanK {
  std::array<std::size_t, L + 1> sizes{};
  std::array<LayerGeom, L> layers{};
  std::size_t head_size = 0;
  std::size_t total = 0;
  std::array<std::size_t, L + 1> act_off{};
  std::array<std::size_t, L> pre_off{};
};

template <std::size_t L>
constexpr PlanK<L> build_plan_k(std::array<std::size_t, L + 1> sizes,
                                std::array<bool, L> relu) {
  PlanK<L> plan{};
  plan.sizes = sizes;
  std::size_t off = 0;
  for (std::size_t l = 0; l < L; ++l) {
    LayerGeom& g = plan.layers[l];
    g.rows = sizes[l + 1];
    g.cols = sizes[l];
    g.relu = relu[l];
    g.nb = g.rows / 4;
    g.tail = g.rows % 4;
    g.bias_off = off;
    off += round_up4(g.rows);
    g.tail_off = off;
    off += round_up4(g.cols * g.tail);
  }
  plan.head_size = off;
  for (std::size_t l = 0; l < L; ++l) {
    plan.layers[l].block_off = off;
    off += plan.layers[l].cols * plan.layers[l].nb * 4;
  }
  plan.total = off;
  std::size_t scratch = 0;
  for (std::size_t l = 0; l <= L; ++l) {
    plan.act_off[l] = scratch;
    scratch += round_up4(sizes[l]);
  }
  scratch = 0;
  for (std::size_t l = 0; l < L; ++l) {
    plan.pre_off[l] = scratch;
    scratch += round_up4(sizes[l + 1]);
  }
  return plan;
}

constexpr PlanK<3> kPlan9551 =
    build_plan_k<3>({9, 5, 5, 1}, {true, true, true});
static_assert(kPlan9551.head_size == 48 && kPlan9551.total == 104 &&
                  kPlan9551.layers[0].block_off == 48 &&
                  kPlan9551.layers[1].block_off == 84,
              "9-5-5-1 blocked layout drifted from the documented offsets");

/// Geometry providers for the engine templates in kernels_engine.inc: the
/// runtime provider reads a TrainPlan, the static one exposes the 9-5-5-1
/// constants. Both feed the identical engine statements, so the two
/// instantiations are bit-identical.
struct RuntimeGeom {
  const TrainPlan* plan;
  std::size_t nlayers() const { return plan->layers.size(); }
  const LayerGeom& layer(std::size_t l) const { return plan->layers[l]; }
  std::size_t size0() const { return plan->sizes[0]; }
  std::size_t head_size() const { return plan->head_size; }
  std::size_t act_off(std::size_t l) const { return plan->act_off[l]; }
  std::size_t pre_off(std::size_t l) const { return plan->pre_off[l]; }
};

struct StaticGeom9551 {
  static constexpr std::size_t nlayers() { return 3; }
  static constexpr LayerGeom layer(std::size_t l) {
    return kPlan9551.layers[l];
  }
  static constexpr std::size_t size0() { return kPlan9551.sizes[0]; }
  static constexpr std::size_t head_size() { return kPlan9551.head_size; }
  static constexpr std::size_t act_off(std::size_t l) {
    return kPlan9551.act_off[l];
  }
  static constexpr std::size_t pre_off(std::size_t l) {
    return kPlan9551.pre_off[l];
  }
};

bool plan_matches_9551(const TrainPlan& plan) {
  if (plan.sizes.size() != kPlan9551.sizes.size()) return false;
  for (std::size_t l = 0; l < kPlan9551.sizes.size(); ++l)
    if (plan.sizes[l] != kPlan9551.sizes[l]) return false;
  for (const LayerGeom& g : plan.layers)
    if (!g.relu) return false;
  // Fingerprint that the runtime layout still equals the constexpr mirror
  // (same algorithm; this guards against the two ever drifting apart — on
  // mismatch the runtime-geometry instantiation handles the plan).
  return plan.head_size == kPlan9551.head_size &&
         plan.total == kPlan9551.total;
}

/// Per-net shapes are validated identical by forward_batch_ensemble, so
/// matching the first net suffices.
bool shape_matches_9551(const NetLayerRef* layers, std::size_t nlayers) {
  if (nlayers != 3) return false;
  for (std::size_t l = 0; l < 3; ++l) {
    if (layers[l].rows != kPlan9551.layers[l].rows ||
        layers[l].cols != kPlan9551.layers[l].cols || !layers[l].relu)
      return false;
  }
  return true;
}

/// Shape providers for the fused-inference engine.
struct FwdRuntimeShape {
  const NetLayerRef* first;
  std::size_t n;
  std::size_t nlayers() const { return n; }
  std::size_t rows(std::size_t l) const { return first[l].rows; }
  std::size_t cols(std::size_t l) const { return first[l].cols; }
  bool relu(std::size_t l) const { return first[l].relu; }
};

struct FwdStatic9551 {
  static constexpr std::size_t nlayers() { return 3; }
  static constexpr std::size_t rows(std::size_t l) {
    return kPlan9551.layers[l].rows;
  }
  static constexpr std::size_t cols(std::size_t l) {
    return kPlan9551.layers[l].cols;
  }
  static constexpr bool relu(std::size_t) { return true; }
};

#include "nn/kernels_engine.inc"  // NOLINT(bugprone-suspicious-include)

#if ECOTUNE_SIMD_X86
// The AVX2 entry points. GCC inlines a target("avx2,fma") V4 method only
// into a function that carries the target too, and the engine templates
// carry none; flatten inlines the whole engine into these two bodies, so
// every V4 operation compiles to one inline instruction.
[[gnu::flatten]] ECOTUNE_TARGET_AVX2 double train_epoch_avx2(
    const TrainPlan& plan, TrainState& st, const double* x,
    std::size_t stride, const double* y, const std::size_t* order,
    std::size_t n) {
  return train_epoch_engine<simd::V4>(plan, st, x, stride, y, order, n);
}

[[gnu::flatten]] ECOTUNE_TARGET_AVX2 void forward_batch_avx2(
    const NetLayerRef* layers, std::size_t nlayers, std::size_t nnets,
    const double* xcm, std::size_t padded, std::size_t nrows, double* out,
    bool mean, double* lane_a, double* lane_b) {
  forward_batch_engine<simd::V4>(layers, nlayers, nnets, xcm, padded, nrows,
                                 out, mean, lane_a, lane_b);
}
#endif  // ECOTUNE_SIMD_X86

}  // namespace

TrainPlan build_train_plan(const std::vector<std::size_t>& sizes,
                           const std::vector<std::uint8_t>& relu,
                           double learning_rate, double beta1, double beta2,
                           double epsilon) {
  ECOTUNE_CHECK(sizes.size() >= 2 && relu.size() + 1 == sizes.size(),
                "build_train_plan: inconsistent layer geometry");
  TrainPlan plan;
  plan.sizes = sizes;
  plan.learning_rate = learning_rate;
  plan.beta1 = beta1;
  plan.beta2 = beta2;
  plan.epsilon = epsilon;
  plan.max_width = *std::max_element(sizes.begin(), sizes.end());
  const std::size_t num_layers = sizes.size() - 1;
  plan.layers.resize(num_layers);
  std::size_t off = 0;
  for (std::size_t l = 0; l < num_layers; ++l) {
    LayerGeom& g = plan.layers[l];
    g.rows = sizes[l + 1];
    g.cols = sizes[l];
    g.relu = relu[l] != 0;
    g.nb = g.rows / 4;
    g.tail = g.rows % 4;
    g.bias_off = off;
    off += round_up4(g.rows);
    g.tail_off = off;
    off += round_up4(g.cols * g.tail);
  }
  plan.head_size = off;
  for (std::size_t l = 0; l < num_layers; ++l) {
    LayerGeom& g = plan.layers[l];
    g.block_off = off;
    off += g.cols * g.nb * 4;
  }
  plan.total = off;

  plan.act_off.resize(num_layers + 1);
  std::size_t scratch = 0;
  for (std::size_t l = 0; l <= num_layers; ++l) {
    plan.act_off[l] = scratch;
    scratch += round_up4(sizes[l]);
  }
  plan.act_total = scratch;
  plan.pre_off.resize(num_layers);
  scratch = 0;
  for (std::size_t l = 0; l < num_layers; ++l) {
    plan.pre_off[l] = scratch;
    scratch += round_up4(sizes[l + 1]);
  }
  plan.pre_total = scratch;
  return plan;
}

void init_train_state(const TrainPlan& plan, TrainState& st) {
  st.p.assign(plan.total, 0.0);
  st.m.assign(plan.total, 0.0);
  st.v.assign(plan.total, 0.0);
  st.g.assign(plan.total, 0.0);
  st.act.assign(plan.act_total, 0.0);
  st.pre.assign(plan.pre_total, 0.0);
  const std::size_t width = round_up4(plan.max_width);
  st.delta_a.assign(width, 0.0);
  st.delta_b.assign(width, 0.0);
  st.timestep = 0;
  st.bc1_saturated = false;
  st.bc2_saturated = false;
}

double train_epoch(const TrainPlan& plan, TrainState& st, const double* x,
                   std::size_t stride, const double* y,
                   const std::size_t* order, std::size_t n) {
#if ECOTUNE_SIMD_X86
  if (simd::active_level() == simd::Level::kAvx2)
    return train_epoch_avx2(plan, st, x, stride, y, order, n);
#endif
  return train_epoch_engine<simd::VS>(plan, st, x, stride, y, order, n);
}

void forward_batch(const NetLayerRef* layers, std::size_t nlayers,
                   std::size_t nnets, const double* xcm, std::size_t padded,
                   std::size_t nrows, double* out, bool mean, double* lane_a,
                   double* lane_b) {
#if ECOTUNE_SIMD_X86
  if (simd::active_level() == simd::Level::kAvx2) {
    forward_batch_avx2(layers, nlayers, nnets, xcm, padded, nrows, out, mean,
                       lane_a, lane_b);
    return;
  }
#endif
  forward_batch_engine<simd::VS>(layers, nlayers, nnets, xcm, padded, nrows,
                                 out, mean, lane_a, lane_b);
}

}  // namespace ecotune::nn::kernels
