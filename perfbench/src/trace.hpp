#pragma once

#include <chrono>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are recorded from the
/// benchmark's own code around each call into a library layer; nothing is
/// written until write() at the end of the run. A disabled tracer records
/// nothing and costs one branch per span.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int parent = -1;    ///< index of the enclosing span, -1 for a root
    long request = -1;  ///< the operation (iteration, request id) it serves
  };

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int open(std::string name, int parent = -1, long request = -1);
  void close(int id);

  /// Self time of every span with `name`: its duration minus the durations
  /// of its child spans. The children of one span run one after another.
  [[nodiscard]] std::vector<double> self_ms(const std::string& name) const;
  /// Full durations of every span with `name`.
  [[nodiscard]] std::vector<double> duration_ms(const std::string& name) const;
  /// Durations of the spans with `name`, summed per request id.
  [[nodiscard]] std::vector<double> per_request_ms(const std::string& name) const;

  /// Writes {"spans": [...]} as JSON.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] double now_ms() const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, int parent = -1, long request = -1)
      : tracer_(tracer),
        id_(tracer.open(std::move(name), parent, request)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
