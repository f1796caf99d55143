#include "serve/service.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "core/evaluation.hpp"
#include "store/measurement_store.hpp"
#include "workload/suite.hpp"

namespace ecotune::serve {
namespace {

/// Distinguishes "no such method" from caller-fault parameter errors so
/// handle() can map it to the dedicated error code.
struct UnknownMethodError : Error {
  using Error::Error;
};

/// The method vocabulary, sorted (stable "methods" listing).
Json method_list(bool debug) {
  Json::Array names{"dta", "evaluate", "methods", "ping", "predict", "stats",
                    "tune"};
  if (debug) names.emplace_back("sleep");
  return Json(std::move(names));
}

const std::string& required_string(const Json& params, const char* field) {
  ensure(params.contains(field) && params.at(field).is_string() &&
             !params.at(field).as_string().empty(),
         "params." + std::string(field) + ": non-empty string required");
  return params.at(field).as_string();
}

Json store_stats_json(store::MeasurementStore& store) {
  const store::StoreStats s = store.stats();
  Json j = Json::object();
  j["hits"] = static_cast<std::int64_t>(s.hits);
  j["misses"] = static_cast<std::int64_t>(s.misses);
  j["invalidated"] = static_cast<std::int64_t>(s.invalidated);
  j["rejected"] = static_cast<std::int64_t>(s.rejected);
  j["writes"] = static_cast<std::int64_t>(s.writes);
  j["entries"] = store.size();
  j["mode"] = std::string(store::to_string(store.mode()));
  return j;
}

}  // namespace

TuningService::TuningService(ServiceConfig config)
    : config_(std::move(config)),
      session_([&] {
        api::SessionConfig sc = config_.session;
        // Namespace daemon store entries away from the batch drivers'
        // when they share one cache directory.
        if (sc.scope().empty()) sc.scope("serve");
        return sc;
      }()) {
  // Train before the first request, so no request pays for training.
  session_.train_model();
}

std::string TuningService::request_key(const RpcRequest& req) {
  if (req.params.contains("key") && req.params.at("key").is_string() &&
      !req.params.at("key").as_string().empty()) {
    return req.tenant + "/" + req.method + "/" +
           req.params.at("key").as_string();
  }
  // Canonical params digest: Json objects dump with sorted keys, so two
  // textually different but semantically identical requests share a key.
  Fingerprint fp;
  fp.add("tenant", req.tenant)
      .add("method", req.method)
      .add("params", req.params.dump(-1));
  return req.tenant + "/" + req.method + "/" + Fingerprint::to_hex(fp.digest());
}

Json TuningService::handle(const Json& frame) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string tenant = "default";
  const Json id =
      frame.is_object() && frame.contains("id") ? frame.at("id") : Json();
  Json response;
  try {
    const RpcRequest req = RpcRequest::from_frame(frame);
    tenant = req.tenant;
    response = ok_response(req.id, dispatch(req));
  } catch (const UnknownMethodError& e) {
    response = error_response(id, "unknown_method", e.what());
  } catch (const Error& e) {
    // Unknown benchmark/tuner/objective names and malformed params are the
    // caller's fault; say so instead of "internal".
    response = error_response(id, "bad_request", e.what());
  } catch (const std::exception& e) {
    response = error_response(id, "internal", e.what());
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  stats_.record(tenant, response.at("ok").as_bool(), elapsed.count());
  return response;
}

Json TuningService::dispatch(const RpcRequest& req) {
  const Json& params = req.params;
  if (req.method == "ping") {
    Json j = Json::object();
    j["pong"] = true;
    return j;
  }
  if (req.method == "methods") {
    Json j = Json::object();
    j["methods"] = method_list(config_.enable_debug_methods);
    j["benchmarks"] = [] {
      Json::Array names;
      for (const auto& n : workload::BenchmarkSuite::names())
        names.emplace_back(n);
      return Json(std::move(names));
    }();
    return j;
  }
  if (req.method == "predict") {
    ensure(params.contains("counter_rates") &&
               params.at("counter_rates").is_object(),
           "params.counter_rates: object of counter-name -> rate required");
    std::map<std::string, double> rates;
    for (const auto& [name, value] : params.at("counter_rates").as_object()) {
      ensure(value.is_number(),
             "params.counter_rates." + name + ": number required");
      rates[name] = value.as_number();
    }
    const auto rec =
        session_.model().recommend(rates, session_.config().spec());
    Json j = Json::object();
    j["cf_mhz"] = rec.cf.as_mhz();
    j["ucf_mhz"] = rec.ucf.as_mhz();
    j["predicted_normalized_energy"] = rec.predicted_normalized_energy;
    return j;
  }
  if (req.method == "tune") {
    const std::string& benchmark = required_string(params, "benchmark");
    const std::string& tuner = required_string(params, "tuner");
    std::string objective;
    if (params.contains("objective"))
      objective = params.at("objective").as_string();
    const TuningOutcome outcome =
        session_.tune(tuner, workload::BenchmarkSuite::by_name(benchmark),
                      objective, "serve-" + request_key(req));
    return outcome.to_json();
  }
  if (req.method == "dta") {
    const std::string& benchmark = required_string(params, "benchmark");
    // One daemon response is one single-report document.
    return api::CampaignReport{
        {session_.run_dta(workload::BenchmarkSuite::by_name(benchmark),
                          "serve-" + request_key(req))}}
        .to_json();
  }
  if (req.method == "evaluate") {
    const std::string& benchmark = required_string(params, "benchmark");
    const core::SavingsRow row = session_.evaluate_savings(
        workload::BenchmarkSuite::by_name(benchmark),
        "serve-" + request_key(req));
    Json j = Json::object();
    j["row"] = row.to_json();
    return j;
  }
  if (req.method == "stats") {
    Json j = stats_.snapshot(queue_depth());
    j["store"] = store_stats_json(session_.store());
    return j;
  }
  if (config_.enable_debug_methods && req.method == "sleep") {
    ensure(params.contains("ms") && params.at("ms").is_number() &&
               params.at("ms").as_number() >= 0,
           "params.ms: non-negative number required");
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        params.at("ms").as_number()));
    Json j = Json::object();
    j["slept_ms"] = params.at("ms").as_number();
    return j;
  }
  throw UnknownMethodError("unknown method '" + req.method + "'");
}

}  // namespace ecotune::serve
