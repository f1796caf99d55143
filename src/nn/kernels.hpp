#pragma once

// The NN engine behind every Mlp train/inference path: one fused
// per-sample ADAM training schedule and one batched multi-network forward
// pass, written once as templates over a four-lane type
// (nn/kernels_engine.inc) and instantiated on simd::V4 (AVX2+FMA) and on
// simd::VS (plain C++, any CPU). train_epoch/forward_batch dispatch on
// simd::active_level().
//
// Determinism contract
// --------------------
// Every multiply-accumulate is one correctly rounded fma in a frozen order,
// and every lane operation of V4 and VS rounds identically, so both levels
// produce the same bits — run to run, independent of thread count, on any
// machine. The dispatch level only changes speed; one golden training
// trajectory in tests/test_nn.cpp pins the result at every level, and
// tests/test_simd_kernels.cpp asserts EXPECT_EQ across levels.
//
// Training-state layout (TrainPlan / TrainState)
// ----------------------------------------------
// Weights live in a flat aligned parameter vector p (with parallel ADAM
// moment vectors m, v and gradient scratch g), laid out per layer as:
//   head:   [bias row 0..rows) | tail weights w(4*nb+t, j) at j*tail+t]
//   blocks: w(i, j) for i < 4*nb at block_off + (j*nb + i/4)*4 + i%4
// Every region starts 4-aligned (32-byte); pad parameter slots are never
// read by any forward/backward pass or by the unpack, and an ADAM step
// over finite garbage stays finite, so padding never perturbs real
// parameters. The lane-blocked transpose layout makes a weight column's
// row-lanes one aligned vector load, so the forward pass reads exactly
// what the ADAM update of the previous sample stored.

#include <cstddef>
#include <vector>

#include "common/simd.hpp"

namespace ecotune::nn::kernels {

/// Geometry of one layer inside the flat blocked parameter vector.
struct LayerGeom {
  std::size_t rows = 0;
  std::size_t cols = 0;
  bool relu = true;
  std::size_t nb = 0;         ///< rows / 4 full lane blocks
  std::size_t tail = 0;       ///< rows % 4 leftover rows
  std::size_t bias_off = 0;   ///< rows doubles (region padded to 4)
  std::size_t tail_off = 0;   ///< cols * tail doubles, index [j*tail + t]
  std::size_t block_off = 0;  ///< cols*nb*4 doubles, [(j*nb + b)*4 + lane]
};

/// Immutable description of a training problem: layer geometry, buffer
/// offsets and the ADAM hyper-parameters, derived once per network shape.
struct TrainPlan {
  std::vector<std::size_t> sizes;  ///< layer widths (L+1 entries)
  std::vector<LayerGeom> layers;   ///< per weight layer (L entries)
  std::size_t head_size = 0;       ///< doubles before the first block region
  std::size_t total = 0;           ///< doubles in each of p/m/v/g
  std::vector<std::size_t> act_off, pre_off;
  std::size_t act_total = 0, pre_total = 0;
  std::size_t max_width = 0;
  double learning_rate = 0.0, beta1 = 0.0, beta2 = 0.0, epsilon = 0.0;
};

/// Mutable training state over a TrainPlan: the packed parameters, ADAM
/// moments, gradient scratch, and the per-sample forward/backward buffers.
struct TrainState {
  simd::aligned_vector<double> p, m, v, g;
  simd::aligned_vector<double> act, pre;  ///< forward scratch
  simd::aligned_vector<double> delta_a, delta_b;
  long timestep = 0;
  bool bc1_saturated = false;
  bool bc2_saturated = false;
};

/// Builds the blocked layout for `sizes` (relu[l] = activation after
/// weight layer l; relu.size() == sizes.size() - 1).
[[nodiscard]] TrainPlan build_train_plan(const std::vector<std::size_t>& sizes,
                                         const std::vector<std::uint8_t>& relu,
                                         double learning_rate, double beta1,
                                         double beta2, double epsilon);

/// Sizes and zero-fills every TrainState buffer for `plan`.
void init_train_state(const TrainPlan& plan, TrainState& st);

/// Borrowed view of one network layer in canonical row-major storage, used
/// by the fused batched-inference engine (weights are broadcast a scalar at
/// a time, so no repacking is needed for inference).
struct NetLayerRef {
  const double* w = nullptr;  ///< row-major rows x cols
  const double* b = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  bool relu = true;
};

/// One epoch of per-sample ADAM SGD over the packed state, visiting the
/// samples in `order`; returns the summed loss in visit order (the caller
/// divides by the sample count).
[[nodiscard]] double train_epoch(const TrainPlan& plan, TrainState& st,
                                 const double* x, std::size_t stride,
                                 const double* y, const std::size_t* order,
                                 std::size_t n);

/// Fused multi-network batched forward over a column-major batch. `layers`
/// holds nnets*nlayers refs, net-major; `xcm` is the batch with columns of
/// `padded` rows (padded to a multiple of 4 with zeros, 32-byte-aligned
/// column starts); lane_a/lane_b are 4*max_width aligned scratch rows.
/// Writes the ensemble sum (mean when `mean`) of the scalar outputs of the
/// first `nrows` samples into `out`, accumulating members in net order —
/// per sample, bit-identical to summing per-net forward_batch results.
void forward_batch(const NetLayerRef* layers, std::size_t nlayers,
                   std::size_t nnets, const double* xcm, std::size_t padded,
                   std::size_t nrows, double* out, bool mean, double* lane_a,
                   double* lane_b);

}  // namespace ecotune::nn::kernels
