#include "mix.hpp"

#include <stdexcept>
#include <utility>

#include "serve/protocol.hpp"
#include "workload/suite.hpp"

namespace perfbench {
namespace {

/// Strategies the tune_fresh class draws from.
const std::array<const char*, 4> kFreshTuners = {"qlearn", "ondemand",
                                                 "conservative", "dta"};

/// The static hot set: the first benchmarks of the suite.
constexpr std::size_t kStaticHotBenchmarks = 6;

std::string tenant_name(std::int64_t k) { return "tenant-" + std::to_string(k); }

}  // namespace

MixGenerator::MixGenerator(std::uint64_t seed,
                           std::vector<std::map<std::string, double>> signatures)
    : seed_(seed),
      signatures_(std::move(signatures)),
      rng_(ecotune::Rng(seed).fork("serve_mix")),
      benchmarks_(ecotune::workload::BenchmarkSuite::names()) {
  if (signatures_.empty())
    throw std::invalid_argument("MixGenerator: no predict signatures");
}

MixRequest MixGenerator::make(RequestClass cls, const std::string& tenant,
                              ecotune::Json params) {
  MixRequest req;
  req.cls = cls;
  req.frame = ecotune::Json::object();
  req.frame["schema"] = std::string(ecotune::serve::kRpcSchema);
  req.frame["id"] = static_cast<std::int64_t>(next_id_++);
  req.frame["tenant"] = tenant;
  req.frame["method"] = cls == RequestClass::kPredict ? "predict"
                        : cls == RequestClass::kDtaHit ||
                                cls == RequestClass::kDtaFresh
                            ? "dta"
                            : "tune";
  req.frame["params"] = std::move(params);
  return req;
}

MixRequest MixGenerator::next() {
  const double u = rng_.uniform();
  std::size_t c = 0;
  double cumulative = kClassShares[0];
  while (c + 1 < kClassCount && u >= cumulative) cumulative += kClassShares[++c];
  const auto cls = static_cast<RequestClass>(c);

  const auto pick = [this](std::size_t n) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::string tenant = tenant_name(rng_.uniform_int(0, kTenants - 1));
  ecotune::Json params = ecotune::Json::object();
  switch (cls) {
    case RequestClass::kPredict: {
      ecotune::Json rates = ecotune::Json::object();
      for (const auto& [name, rate] : signatures_[pick(signatures_.size())])
        rates[name] = rate * rng_.uniform(0.95, 1.05);
      params["counter_rates"] = std::move(rates);
      return make(cls, tenant, std::move(params));
    }
    case RequestClass::kDtaHit: {
      const std::string& bench = benchmarks_[pick(benchmarks_.size())];
      params["benchmark"] = bench;
      MixRequest req = make(cls, tenant, std::move(params));
      req.hot_key = "dta/" + tenant + "/" + bench;
      return req;
    }
    case RequestClass::kDtaFresh:
    case RequestClass::kTuneFresh: {
      params["benchmark"] = benchmarks_[pick(benchmarks_.size())];
      if (cls == RequestClass::kTuneFresh)
        params["tuner"] = kFreshTuners[pick(kFreshTuners.size())];
      params["key"] =
          "fresh-" + std::to_string(seed_) + "-" + std::to_string(fresh_++);
      return make(cls, tenant, std::move(params));
    }
    case RequestClass::kStaticHit: {
      const std::string& bench = benchmarks_[pick(kStaticHotBenchmarks)];
      params["benchmark"] = bench;
      params["tuner"] = "static";
      MixRequest req = make(cls, tenant_name(0), std::move(params));
      req.hot_key = "static/" + bench;
      return req;
    }
  }
  throw std::logic_error("MixGenerator: unknown class");
}

std::vector<MixRequest> MixGenerator::hot_set() {
  std::vector<MixRequest> out;
  for (int t = 0; t < kTenants; ++t) {
    for (const std::string& bench : benchmarks_) {
      ecotune::Json params = ecotune::Json::object();
      params["benchmark"] = bench;
      MixRequest req = make(RequestClass::kDtaHit, tenant_name(t), std::move(params));
      req.hot_key = "dta/" + tenant_name(t) + "/" + bench;
      out.push_back(std::move(req));
    }
  }
  for (std::size_t b = 0; b < kStaticHotBenchmarks; ++b) {
    ecotune::Json params = ecotune::Json::object();
    params["benchmark"] = benchmarks_[b];
    params["tuner"] = "static";
    MixRequest req =
        make(RequestClass::kStaticHit, tenant_name(0), std::move(params));
    req.hot_key = "static/" + benchmarks_[b];
    out.push_back(std::move(req));
  }
  return out;
}

ClosedLoop::ClosedLoop(std::size_t connections, std::size_t queue_limit)
    : busy_(connections, false), queue_limit_(queue_limit) {}

void ClosedLoop::on_send(std::size_t conn) {
  if (busy_.at(conn))
    throw std::logic_error("closed loop: second request in flight on connection " +
                           std::to_string(conn));
  if (in_flight_ + 1 > queue_limit_)
    throw std::logic_error("closed loop: more than queue_limit in flight");
  busy_[conn] = true;
  ++in_flight_;
}

void ClosedLoop::on_reply(std::size_t conn) {
  if (!busy_.at(conn))
    throw std::logic_error("closed loop: reply on idle connection " +
                           std::to_string(conn));
  busy_[conn] = false;
  --in_flight_;
}

}  // namespace perfbench
