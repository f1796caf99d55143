#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>

#include "common/error.hpp"

namespace ecotune::nn {

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {
  ensure(config_.layer_sizes.size() >= 2, "Mlp: need at least two layers");
}

Mlp::Mlp(const Mlp& other)
    : config_(other.config_),
      layers_(other.layers_),
      timestep_(other.timestep_),
      bc1_saturated_(other.bc1_saturated_),
      bc2_saturated_(other.bc2_saturated_) {}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this != &other) {
    config_ = other.config_;
    layers_ = other.layers_;
    timestep_ = other.timestep_;
    bc1_saturated_ = other.bc1_saturated_;
    bc2_saturated_ = other.bc2_saturated_;
    engine_.reset();
  }
  return *this;
}

Mlp::Mlp(MlpConfig config, Rng& rng) : Mlp(std::move(config)) {
  for (std::size_t l = 0; l + 1 < config_.layer_sizes.size(); ++l) {
    const std::size_t in = config_.layer_sizes[l];
    const std::size_t out = config_.layer_sizes[l + 1];
    Layer layer;
    layer.w = stats::Matrix(out, in);
    const double he = std::sqrt(2.0 / static_cast<double>(in));
    for (std::size_t i = 0; i < out; ++i)
      for (std::size_t j = 0; j < in; ++j)
        layer.w(i, j) = rng.normal(0.0, 1.0) * he;
    layer.b.assign(out, 0.0);
    layer.mw = stats::Matrix(out, in);
    layer.vw = stats::Matrix(out, in);
    layer.mb.assign(out, 0.0);
    layer.vb.assign(out, 0.0);
    const bool is_output = (l + 2 == config_.layer_sizes.size());
    layer.relu = !is_output || config_.relu_output;
    layers_.push_back(std::move(layer));
  }
}

double Mlp::predict(std::span<const double> x, Workspace& ws) const {
  ensure(output_size() == 1, "Mlp::predict: network is not scalar-valued");
  ensure(x.size() == input_size(), "Mlp::predict: input size mismatch");
  double out = 0.0;
  forward_rows(std::span<const Mlp>(this, 1), x.data(), 1, &out, ws,
               /*mean=*/false);
  return out;
}

double Mlp::predict(const std::vector<double>& x) const {
  thread_local Workspace ws;
  return predict(std::span<const double>(x), ws);
}

void Mlp::forward_batch(const stats::Matrix& x, std::span<double> out,
                        Workspace& ws) const {
  forward_batch_ensemble(std::span<const Mlp>(this, 1), x, out, ws,
                         /*mean=*/false);
}

double Mlp::train_epoch(const stats::Matrix& x, const std::vector<double>& y,
                        Rng& shuffle_rng) {
  ensure(x.rows() == y.size(), "Mlp::train_epoch: sample count mismatch");
  ensure(output_size() == 1, "Mlp::train_epoch: expects scalar labels");
  ensure(x.cols() == input_size(), "Mlp::train_epoch: input size mismatch");
  std::vector<std::size_t> order(x.rows());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i-- > 1;) {
    const auto j = static_cast<std::size_t>(
        shuffle_rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(order[i], order[j]);
  }
  if (!engine_) {
    engine_ = std::make_unique<TrainEngine>();
    std::vector<std::uint8_t> relu;
    relu.reserve(layers_.size());
    for (const Layer& layer : layers_) relu.push_back(layer.relu ? 1 : 0);
    engine_->plan = kernels::build_train_plan(
        config_.layer_sizes, relu, config_.learning_rate, config_.beta1,
        config_.beta2, config_.epsilon);
    kernels::init_train_state(engine_->plan, engine_->state);
  }
  engine_pack();
  const double total =
      kernels::train_epoch(engine_->plan, engine_->state, x.data().data(),
                           x.cols(), y.data(), order.data(), order.size());
  engine_unpack();
  return total / static_cast<double>(x.rows());
}

void Mlp::engine_pack() {
  TrainEngine& e = *engine_;
  double* p = e.state.p.data();
  double* m = e.state.m.data();
  double* v = e.state.v.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const kernels::LayerGeom& g = e.plan.layers[l];
    for (std::size_t i = 0; i < g.rows; ++i) {
      p[g.bias_off + i] = layer.b[i];
      m[g.bias_off + i] = layer.mb[i];
      v[g.bias_off + i] = layer.vb[i];
    }
    for (std::size_t i = 0; i < g.rows; ++i) {
      for (std::size_t j = 0; j < g.cols; ++j) {
        const std::size_t k =
            i < 4 * g.nb
                ? g.block_off + (j * g.nb + i / 4) * 4 + i % 4
                : g.tail_off + j * g.tail + (i - 4 * g.nb);
        p[k] = layer.w(i, j);
        m[k] = layer.mw(i, j);
        v[k] = layer.vw(i, j);
      }
    }
  }
  e.state.timestep = timestep_;
  e.state.bc1_saturated = bc1_saturated_;
  e.state.bc2_saturated = bc2_saturated_;
}

void Mlp::engine_unpack() {
  const TrainEngine& e = *engine_;
  const double* p = e.state.p.data();
  const double* m = e.state.m.data();
  const double* v = e.state.v.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];
    const kernels::LayerGeom& g = e.plan.layers[l];
    for (std::size_t i = 0; i < g.rows; ++i) {
      layer.b[i] = p[g.bias_off + i];
      layer.mb[i] = m[g.bias_off + i];
      layer.vb[i] = v[g.bias_off + i];
    }
    for (std::size_t i = 0; i < g.rows; ++i) {
      for (std::size_t j = 0; j < g.cols; ++j) {
        const std::size_t k =
            i < 4 * g.nb
                ? g.block_off + (j * g.nb + i / 4) * 4 + i % 4
                : g.tail_off + j * g.tail + (i - 4 * g.nb);
        layer.w(i, j) = p[k];
        layer.mw(i, j) = m[k];
        layer.vw(i, j) = v[k];
      }
    }
  }
  timestep_ = e.state.timestep;
  bc1_saturated_ = e.state.bc1_saturated;
  bc2_saturated_ = e.state.bc2_saturated;
}

void Mlp::forward_rows(std::span<const Mlp> nets, const double* x,
                       std::size_t n, double* out, Workspace& ws, bool mean) {
  const Mlp& first = nets.front();
  const std::size_t cols = first.input_size();
  const std::size_t padded = (n + 3) & ~static_cast<std::size_t>(3);
  if (ws.cm_.size() < padded * cols) ws.cm_.resize(padded * cols);
  for (std::size_t j = 0; j < cols; ++j) {
    double* col = ws.cm_.data() + j * padded;
    for (std::size_t r = 0; r < n; ++r) col[r] = x[r * cols + j];
    for (std::size_t r = n; r < padded; ++r) col[r] = 0.0;
  }
  const std::vector<std::size_t>& sizes = first.config_.layer_sizes;
  const std::size_t lane_len =
      4 * *std::max_element(sizes.begin(), sizes.end());
  if (ws.lane_a_.size() < lane_len) {
    ws.lane_a_.resize(lane_len);
    ws.lane_b_.resize(lane_len);
  }
  ws.refs_.clear();
  for (const Mlp& net : nets) {
    for (const Layer& layer : net.layers_) {
      ws.refs_.push_back({layer.w.data().data(), layer.b.data(),
                          layer.w.rows(), layer.w.cols(), layer.relu});
    }
  }
  kernels::forward_batch(ws.refs_.data(), first.layers_.size(), nets.size(),
                         ws.cm_.data(), padded, n, out, mean,
                         ws.lane_a_.data(), ws.lane_b_.data());
}

void forward_batch_ensemble(std::span<const Mlp> nets, const stats::Matrix& x,
                            std::span<double> out, Workspace& ws, bool mean) {
  ensure(!nets.empty(), "forward_batch_ensemble: empty ensemble");
  const Mlp& first = nets.front();
  ensure(first.output_size() == 1,
         "forward_batch_ensemble: networks are not scalar-valued");
  for (const Mlp& net : nets)
    ensure(net.config_.layer_sizes == first.config_.layer_sizes,
           "forward_batch_ensemble: ensemble shape mismatch");
  ensure(x.cols() == first.input_size(),
         "forward_batch_ensemble: input size mismatch");
  ensure(out.size() == x.rows(),
         "forward_batch_ensemble: output size mismatch");
  if (x.rows() == 0) return;
  Mlp::forward_rows(nets, x.data().data(), x.rows(), out.data(), ws, mean);
}

namespace {

Json matrix_to_json(const stats::Matrix& m) {
  Json rows = Json::array();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    Json row = Json::array();
    for (std::size_t j = 0; j < m.cols(); ++j) row.push_back(m(i, j));
    rows.push_back(std::move(row));
  }
  return rows;
}

stats::Matrix matrix_from_json(const Json& j, std::size_t rows,
                               std::size_t cols, const char* what) {
  const auto& rj = j.as_array();
  ensure(rj.size() == rows, std::string("Mlp::from_json: ") + what +
                                " row count mismatch");
  stats::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto& row = rj[i].as_array();
    ensure(row.size() == cols, std::string("Mlp::from_json: ragged ") + what);
    for (std::size_t jj = 0; jj < cols; ++jj) m(i, jj) = row[jj].as_number();
  }
  return m;
}

}  // namespace

Json Mlp::to_json() const {
  Json j = Json::object();
  Json sizes = Json::array();
  for (auto s : config_.layer_sizes) sizes.push_back(s);
  j["layer_sizes"] = std::move(sizes);
  j["relu_output"] = config_.relu_output;
  j["learning_rate"] = config_.learning_rate;
  j["beta1"] = config_.beta1;
  j["beta2"] = config_.beta2;
  j["epsilon"] = config_.epsilon;
  j["timestep"] = timestep_;
  Json layers = Json::array();
  for (const auto& layer : layers_) {
    Json lj = Json::object();
    Json b = Json::array();
    for (double v : layer.b) b.push_back(v);
    lj["w"] = matrix_to_json(layer.w);
    lj["b"] = std::move(b);
    lj["relu"] = layer.relu;
    // ADAM moments: without them a restored network silently resumes with a
    // reset optimizer (cold moments, wrong bias correction).
    lj["mw"] = matrix_to_json(layer.mw);
    lj["vw"] = matrix_to_json(layer.vw);
    Json mb = Json::array();
    for (double v : layer.mb) mb.push_back(v);
    Json vb = Json::array();
    for (double v : layer.vb) vb.push_back(v);
    lj["mb"] = std::move(mb);
    lj["vb"] = std::move(vb);
    layers.push_back(std::move(lj));
  }
  j["layers"] = std::move(layers);
  return j;
}

Mlp Mlp::from_json(const Json& j) {
  MlpConfig config;
  config.layer_sizes.clear();
  for (const auto& s : j.at("layer_sizes").as_array())
    config.layer_sizes.push_back(static_cast<std::size_t>(s.as_int()));
  config.relu_output = j.at("relu_output").as_bool();
  config.learning_rate = j.at("learning_rate").as_number();
  // Optimizer hyper-parameters: absent in files written before they were
  // serialized; fall back to the historical defaults.
  if (j.contains("beta1")) config.beta1 = j.at("beta1").as_number();
  if (j.contains("beta2")) config.beta2 = j.at("beta2").as_number();
  if (j.contains("epsilon")) config.epsilon = j.at("epsilon").as_number();

  Mlp net(config);
  if (j.contains("timestep")) net.timestep_ = j.at("timestep").as_int();
  for (const auto& lj : j.at("layers").as_array()) {
    const auto& wj = lj.at("w").as_array();
    const auto& bj = lj.at("b").as_array();
    Layer layer;
    const std::size_t out = wj.size();
    const std::size_t in = out ? wj[0].as_array().size() : 0;
    layer.w = matrix_from_json(lj.at("w"), out, in, "weight matrix");
    for (const auto& v : bj) layer.b.push_back(v.as_number());
    ensure(layer.b.size() == out, "Mlp::from_json: bias size mismatch");
    if (lj.contains("mw")) {
      layer.mw = matrix_from_json(lj.at("mw"), out, in, "mw moments");
      layer.vw = matrix_from_json(lj.at("vw"), out, in, "vw moments");
      layer.mb.clear();
      for (const auto& v : lj.at("mb").as_array())
        layer.mb.push_back(v.as_number());
      layer.vb.clear();
      for (const auto& v : lj.at("vb").as_array())
        layer.vb.push_back(v.as_number());
      ensure(layer.mb.size() == out && layer.vb.size() == out,
             "Mlp::from_json: bias moment size mismatch");
    } else {
      layer.mw = stats::Matrix(out, in);
      layer.vw = stats::Matrix(out, in);
      layer.mb.assign(out, 0.0);
      layer.vb.assign(out, 0.0);
    }
    layer.relu = lj.at("relu").as_bool();
    net.layers_.push_back(std::move(layer));
  }
  ensure(net.layers_.size() + 1 == config.layer_sizes.size(),
         "Mlp::from_json: layer count mismatch");
  return net;
}

}  // namespace ecotune::nn
