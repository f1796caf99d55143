#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "nn/kernels.hpp"
#include "stats/linalg.hpp"

namespace ecotune::nn {

/// Hyper-parameters of the feed-forward network and its ADAM optimizer.
/// Defaults reproduce the paper's Fig. 4 architecture and Sec. V-B training
/// setup: 9 inputs -> 5 -> 5 -> 1, ReLU before the hidden layers and before
/// the output, He initialization, zero biases, MSE loss, ADAM with the
/// default parameters and learning rate 1e-3.
struct MlpConfig {
  std::vector<std::size_t> layer_sizes{9, 5, 5, 1};
  /// ReLU on the output unit as well (the paper places ReLU "before the two
  /// hidden layers and before the output layer"; normalized energy is
  /// non-negative).
  bool relu_output = true;
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

class Mlp;
class Workspace;

/// Fused batched inference over an ensemble of identically shaped
/// scalar-output networks: one pass over `x` (one column-major packing,
/// all members' layer sweeps interleaved over the same cache-resident
/// rows) writing the member-order ensemble sum — the mean when `mean` is
/// set — into `out`. Bitwise identical to calling net.forward_batch per
/// member and accumulating in member order, at every dispatch level.
void forward_batch_ensemble(std::span<const Mlp> nets, const stats::Matrix& x,
                            std::span<double> out, Workspace& ws, bool mean);

/// Reusable scratch for Mlp inference: the column-major batch (columns
/// padded to a multiple of 4 rows), two aligned lane rows, and the borrowed
/// layer refs the engine reads. Buffers grow on demand and are reused
/// allocation-free afterwards. Workspaces are not thread-safe: give each
/// thread its own.
class Workspace {
 public:
  Workspace() = default;

 private:
  friend class Mlp;

  simd::aligned_vector<double> cm_, lane_a_, lane_b_;
  std::vector<kernels::NetLayerRef> refs_;
};

/// Fully connected feed-forward network trained by per-sample stochastic
/// gradient descent with ADAM on a mean-squared-error objective.
///
/// Every train and inference path runs the one NN engine (nn/kernels.hpp):
/// training packs the network into the engine's blocked state, runs the
/// samples in order, and unpacks; inference runs lane groups of four rows
/// through a caller-supplied (or thread-local) Workspace. predict() is a
/// one-row group, so every path produces the same bits as its batched form,
/// at every dispatch level.
class Mlp {
 public:
  /// Initializes weights ~ N(0,1) * sqrt(2/n_in) (He et al.), biases zero.
  Mlp(MlpConfig config, Rng& rng);

  /// Copies transfer the network and optimizer state but not the cached
  /// kernel-engine scratch (it rebinds lazily on the next training call).
  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) = default;
  Mlp& operator=(Mlp&&) = default;
  ~Mlp() = default;

  [[nodiscard]] std::size_t input_size() const {
    return config_.layer_sizes.front();
  }
  [[nodiscard]] std::size_t output_size() const {
    return config_.layer_sizes.back();
  }

  /// Scalar prediction (single-output networks).
  [[nodiscard]] double predict(const std::vector<double>& x) const;

  /// Allocation-free scalar prediction through a caller-owned workspace.
  /// Bitwise identical to the same row through forward_batch().
  [[nodiscard]] double predict(std::span<const double> x,
                               Workspace& ws) const;

  /// Batched forward for scalar-output networks: one prediction per row of
  /// `x` (x.cols() == input_size()), written into `out` (out.size() ==
  /// x.rows()). Bitwise identical to predict() on each row.
  void forward_batch(const stats::Matrix& x, std::span<double> out,
                     Workspace& ws) const;

  /// One epoch of per-sample SGD over (x, y) in shuffled order; returns the
  /// mean loss. Allocation-free after the first call: the engine's packed
  /// state is kept between calls.
  double train_epoch(const stats::Matrix& x, const std::vector<double>& y,
                     Rng& shuffle_rng);

  /// Serializes weights, biases, config and ADAM optimizer state (moments,
  /// timestep, beta1/beta2/epsilon), so a restored network resumes training
  /// exactly where the original left off.
  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static Mlp from_json(const Json& j);

 private:
  struct Layer {
    stats::Matrix w;         ///< out x in
    std::vector<double> b;   ///< out
    stats::Matrix mw, vw;    ///< ADAM first/second moments for w
    std::vector<double> mb, vb;
    bool relu = true;        ///< activation after this layer
  };

  friend void forward_batch_ensemble(std::span<const Mlp> nets,
                                     const stats::Matrix& x,
                                     std::span<double> out, Workspace& ws,
                                     bool mean);

  /// Cached engine training scratch: the blocked layout plan and the packed
  /// parameter/moment state. Meaningful only between pack (training entry)
  /// and unpack (exit) — layers_ stays the canonical storage at rest, so
  /// serialization and inference never see the blocked form.
  struct TrainEngine {
    kernels::TrainPlan plan;
    kernels::TrainState state;
  };

  explicit Mlp(MlpConfig config);  // uninitialized (for from_json)
  void engine_pack();
  void engine_unpack();
  /// Engine forward of the ensemble `nets` over `n` row-major samples `x`
  /// into `out` (sizes already validated; n > 0).
  static void forward_rows(std::span<const Mlp> nets, const double* x,
                           std::size_t n, double* out, Workspace& ws,
                           bool mean);

  MlpConfig config_;
  std::vector<Layer> layers_;
  long timestep_ = 0;
  /// Set once 1 - beta^timestep rounds to exactly 1.0. For 0 <= beta < 1
  /// the power is monotone decreasing, so the correction stays exactly 1.0
  /// for every later timestep and the pow() and the division by it can be
  /// skipped without changing a single bit of the update.
  bool bc1_saturated_ = false;
  bool bc2_saturated_ = false;
  std::unique_ptr<TrainEngine> engine_;  ///< lazy engine training scratch
};

}  // namespace ecotune::nn
