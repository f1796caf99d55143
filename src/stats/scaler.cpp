#include "stats/scaler.hpp"

#include "common/error.hpp"
#include "stats/descriptive.hpp"

namespace ecotune::stats {

void StandardScaler::fit(const Matrix& x) {
  ensure(x.rows() > 0, "StandardScaler::fit: empty matrix");
  mean_.assign(x.cols(), 0.0);
  scale_.assign(x.cols(), 1.0);
  for (std::size_t j = 0; j < x.cols(); ++j) {
    const auto column = x.col(j);
    mean_[j] = ecotune::stats::mean(column);
    const double sd = stddev_population(column);
    scale_[j] = sd > 1e-300 ? sd : 1.0;  // constant feature: leave centered
  }
}

Matrix StandardScaler::transform(const Matrix& x) const {
  Matrix out;
  transform_into(x, out);
  return out;
}

void StandardScaler::transform_into(const Matrix& x, Matrix& out) const {
  ensure(fitted(), "StandardScaler: not fitted");
  ensure(x.cols() == mean_.size(), "StandardScaler: column mismatch");
  if (out.rows() != x.rows() || out.cols() != x.cols())
    out = Matrix(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.cols(); ++j)
      out(i, j) = (x(i, j) - mean_[j]) / scale_[j];
}

Json StandardScaler::to_json() const {
  Json j = Json::object();
  Json means = Json::array();
  Json scales = Json::array();
  for (double m : mean_) means.push_back(m);
  for (double s : scale_) scales.push_back(s);
  j["mean"] = std::move(means);
  j["scale"] = std::move(scales);
  return j;
}

StandardScaler StandardScaler::from_json(const Json& j) {
  StandardScaler s;
  for (const auto& v : j.at("mean").as_array())
    s.mean_.push_back(v.as_number());
  for (const auto& v : j.at("scale").as_array())
    s.scale_.push_back(v.as_number());
  ensure(s.mean_.size() == s.scale_.size(),
         "StandardScaler::from_json: inconsistent sizes");
  return s;
}

}  // namespace ecotune::stats
