#include "trace.hpp"

#include <fstream>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::open(std::string name, int parent, long request) {
  if (!enabled_) return -1;
  const double start = now_ms();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{std::move(name), start, start, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  if (id < 0) return;
  const double end = now_ms();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end_ms = end;
}

std::vector<double> Tracer::duration_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.end_ms - s.start_ms);
  return out;
}

std::vector<double> Tracer::per_request_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<long, double> sums;
  for (const Span& s : spans_)
    if (s.name == name) sums[s.request] += s.end_ms - s.start_ms;
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& [request, ms] : sums) out.push_back(ms);
  return out;
}

std::vector<double> Tracer::self_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<int, double> children_ms;
  for (const Span& s : spans_)
    if (s.parent >= 0) children_ms[s.parent] += s.end_ms - s.start_ms;

  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    const auto it = children_ms.find(static_cast<int>(i));
    out.push_back(s.end_ms - s.start_ms -
                  (it == children_ms.end() ? 0.0 : it->second));
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ecotune::Json::Array spans;
  spans.reserve(spans_.size());
  for (const Span& s : spans_) {
    ecotune::Json j = ecotune::Json::object();
    j["name"] = s.name;
    j["start_ms"] = s.start_ms;
    j["end_ms"] = s.end_ms;
    j["parent"] = s.parent;
    j["request"] = static_cast<std::int64_t>(s.request);
    spans.push_back(std::move(j));
  }
  ecotune::Json doc = ecotune::Json::object();
  doc["spans"] = ecotune::Json(std::move(spans));
  std::ofstream out(path);
  out << doc.dump(-1) << '\n';
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
