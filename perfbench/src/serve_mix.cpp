// serve_mix: an in-process serve::Server on a unix socket over one
// TuningService with an rw store, driven by one generator thread over four
// closed-loop connections (one request in flight each). Daemon workers
// (nproc - 1) plus the generator stay within nproc.
//
// Untraced run: the window is split into rounds of about 5 s, each on a
// freshly started daemon (TuningService construction -- the set-up cost,
// median reported -- then hot-set priming, then the socket mix). The
// timing metrics are medians over the rounds.
// Traced run: a traced Session breakdown of construction, then an untraced
// socket phase, a traced socket phase, an in-process phase that calls the
// codec and TuningService::handle() directly from four threads, and a
// model.recommend() loop.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "api/session.hpp"
#include "bench.hpp"
#include "mix.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ecotune::Json;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kConnections = 4;

/// peak_rss_mb is read when this many requests of the first round have
/// been answered: every fresh request grows the store's in-memory index, so
/// the peak at the end of a fixed-time window would grow with throughput.
/// On a 4-vCPU Xeon the mark falls about 1 s into a 5 s round; a round too
/// slow to reach it reports its peak at the end instead.
constexpr std::size_t kRssMarkRequests = 5000;

/// Length of one untraced round, each on a freshly started daemon.
constexpr double kRoundSeconds = 5.0;

int worker_count() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, n - 1);
}

ecotune::serve::ServiceConfig service_config(const std::string& store_dir) {
  ecotune::serve::ServiceConfig cfg;
  cfg.session = ecotune::api::SessionConfig{}.jobs(0).cache(store_dir, "rw");
  cfg.workers = worker_count();
  return cfg;
}

/// Runs Server::serve() on its own thread; stops and joins on destruction.
class ServerThread {
 public:
  ServerThread(ecotune::serve::TuningService& service, std::string path)
      : server_(service, std::move(path)) {
    server_.bind_and_listen();
    thread_ = std::thread([this] {
      try {
        server_.serve();
      } catch (const std::exception& e) {
        std::cerr << "error: server: " << e.what() << '\n';
      }
    });
  }
  ~ServerThread() {
    server_.request_stop();
    thread_.join();
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  [[nodiscard]] const std::string& path() const { return server_.socket_path(); }

 private:
  ecotune::serve::Server server_;
  std::thread thread_;
};

/// One client connection: blocking socket plus its frame decoder.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect(" + path + "): " + why);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  void send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("send(): " + std::string(std::strerror(errno)));
      }
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads what is available (blocks until at least one byte); returns the
  /// byte count and feeds the decoder.
  std::size_t receive() {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        decoder_.feed(buf, static_cast<std::size_t>(n));
        return static_cast<std::size_t>(n);
      }
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error(n == 0 ? "daemon closed the connection"
                                      : "recv(): " + std::string(std::strerror(errno)));
    }
  }

  [[nodiscard]] std::optional<Json> next_frame() { return decoder_.next(); }

  /// One blocking request/response exchange.
  Json call(const Json& frame) {
    send(ecotune::serve::encode_frame(frame));
    for (;;) {
      if (auto reply = next_frame()) return std::move(*reply);
      (void)receive();
    }
  }

 private:
  int fd_ = -1;
  ecotune::serve::FrameDecoder decoder_;
};

/// First answers of the hot set, keyed by MixRequest::hot_key.
using Answers = std::map<std::string, std::string>;

/// Checks one response against its request; returns an empty string when
/// it is correct, else what is wrong.
std::string check_response(const MixRequest& req, const Json& resp,
                           const Answers& answers) {
  if (!resp.is_object() || !resp.contains("ok") || !resp.at("ok").is_bool())
    return "malformed response";
  if (!resp.at("ok").as_bool())
    return "error response: " + resp.at("error").dump(-1);
  if (!resp.contains("id") || resp.at("id").dump(-1) != req.frame.at("id").dump(-1))
    return "response id does not match the request";
  const Json& result = resp.at("result");
  if (!req.hot_key.empty()) {
    const auto it = answers.find(req.hot_key);
    if (it == answers.end()) return "hot key " + req.hot_key + " was never primed";
    if (result.dump(-1) != it->second)
      return "hot-set answer for " + req.hot_key + " differs from its first answer";
  } else if (req.cls == RequestClass::kPredict && !result.contains("cf_mhz")) {
    return "predict result without cf_mhz";
  }
  return {};
}

struct Sample {
  RequestClass cls = RequestClass::kPredict;
  double latency_ms = 0;
  std::size_t response_bytes = 0;
};

struct PhaseResult {
  std::vector<Sample> samples;
  double window_s = 0;
  double rss_mb_at_mark = 0;  ///< peak RSS when kRssMarkRequests were answered
};

/// The closed loop: each of kConnections connections sends its next
/// request only after the previous answer arrived, until `seconds` pass;
/// then the requests still in flight are drained. Each connection's next
/// request is built and encoded while the current one is in flight, so an
/// answer is followed at once by the next send. Answers are timed when
/// poll() reports them, before the generator checks any of them.
PhaseResult run_socket_phase(const std::string& path, MixGenerator& gen,
                             const Answers& answers, double seconds,
                             std::size_t queue_limit, Tracer& tracer,
                             Outcome& out) {
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t i = 0; i < kConnections; ++i)
    conns.push_back(std::make_unique<Connection>(path));
  ClosedLoop loop(kConnections, queue_limit);
  struct Pending {
    MixRequest req;  ///< in flight
    Clock::time_point sent;
    std::size_t bytes = 0;
    int span = -1;
    MixRequest next;  ///< sent when `req` is answered
    std::string next_wire;
  };
  std::vector<Pending> pending(kConnections);

  PhaseResult result;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto prepare = [&](std::size_t i) {
    Pending& p = pending[i];
    p.next = gen.next();
    p.next_wire = ecotune::serve::encode_frame(p.next.frame);
  };
  auto send_next = [&](std::size_t i) {
    Pending& p = pending[i];
    p.req = std::move(p.next);
    p.bytes = 0;
    loop.on_send(i);
    p.span = tracer.open("serve.request", -1,
                         static_cast<long>(p.req.frame.at("id").as_number()));
    p.sent = Clock::now();
    conns[i]->send(p.next_wire);
  };
  for (std::size_t i = 0; i < kConnections; ++i) {
    prepare(i);
    send_next(i);
    prepare(i);
  }

  std::vector<pollfd> fds(kConnections);
  while (loop.in_flight() > 0) {
    std::vector<std::size_t> polled;
    fds.clear();
    for (std::size_t i = 0; i < kConnections; ++i) {
      if (!loop.busy(i)) continue;
      fds.push_back(pollfd{conns[i]->fd(), POLLIN, 0});
      polled.push_back(i);
    }
    const int ready = ::poll(fds.data(), fds.size(), 60000);
    if (ready == 0) throw std::runtime_error("no response for 60 s");
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("poll(): " + std::string(std::strerror(errno)));
    }
    const auto arrived = Clock::now();
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      const std::size_t i = polled[k];
      Pending& p = pending[i];
      p.bytes += conns[i]->receive();
      auto reply = conns[i]->next_frame();
      if (!reply) continue;
      tracer.close(p.span);
      loop.on_reply(i);
      result.samples.push_back(Sample{
          p.req.cls,
          std::chrono::duration<double, std::milli>(arrived - p.sent).count(),
          p.bytes});
      const MixRequest req = std::move(p.req);
      if (arrived < deadline) send_next(i);
      if (result.samples.size() == kRssMarkRequests)
        result.rss_mb_at_mark = peak_rss_mb();
      ++out.attempted;
      const std::string wrong = check_response(req, *reply, answers);
      if (!wrong.empty()) {
        ++out.failed;
        out.problem(wrong);
      }
      if (loop.busy(i)) prepare(i);
    }
  }
  result.window_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

/// Base predict signatures: the counter rates of every (benchmark, threads)
/// sweep of the training split, read from the service's own store.
std::vector<std::map<std::string, double>> predict_signatures(
    ecotune::api::Session& session) {
  const auto ds = session.acquire_dataset();
  std::vector<std::map<std::string, double>> out;
  std::set<std::pair<std::string, int>> seen;
  const std::size_t counters = ds.feature_names.size() - 2;  // minus cf, ucf
  for (const auto& s : ds.samples) {
    if (!seen.insert({s.benchmark, s.threads}).second) continue;
    std::map<std::string, double> rates;
    for (std::size_t f = 0; f < counters; ++f)
      rates[ds.feature_names[f]] = s.features[f];
    out.push_back(std::move(rates));
  }
  return out;
}

double p50_of(const std::vector<Sample>& samples) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (const Sample& s : samples) v.push_back(s.latency_ms);
  return median(v);
}

/// A daemon: TuningService construction on a fresh store (timed, the
/// set-up cost), its Server on a unix socket, and the hot set's first
/// answers. Destruction stops the server and removes the store.
class Daemon {
 public:
  explicit Daemon(std::string dir) : dir_(std::move(dir)) {
    const auto t0 = Clock::now();
    service_ = std::make_unique<ecotune::serve::TuningService>(
        service_config(dir_));
    construct_ms_ = ms_since(t0);
    server_ = std::make_unique<ServerThread>(*service_, dir_ + ".sock");
  }
  ~Daemon() {
    server_.reset();
    service_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Sends every hot-set request once and records its answer.
  void prime(MixGenerator& gen, Outcome& out) {
    Connection conn(socket());
    for (const MixRequest& req : gen.hot_set()) {
      const Json resp = conn.call(req.frame);
      if (resp.contains("ok") && resp.at("ok").is_bool() &&
          resp.at("ok").as_bool()) {
        answers_.emplace(req.hot_key, resp.at("result").dump(-1));
      } else {
        out.problem("priming " + req.hot_key + " failed: " + resp.dump(-1));
      }
    }
  }

  [[nodiscard]] ecotune::serve::TuningService& service() { return *service_; }
  [[nodiscard]] const std::string& socket() const { return server_->path(); }
  [[nodiscard]] const Answers& answers() const { return answers_; }
  [[nodiscard]] double construct_ms() const { return construct_ms_; }
  [[nodiscard]] std::string store_file() const {
    return dir_ + "/measurements.jsonl";
  }

 private:
  std::string dir_;
  double construct_ms_ = 0;
  std::unique_ptr<ecotune::serve::TuningService> service_;
  std::unique_ptr<ServerThread> server_;
  Answers answers_;
};

/// Store counters and file size around a phase, per answered request.
struct StoreDelta {
  ecotune::store::StoreStats before;
  double mb_before = 0;
  double hits = 0, misses = 0, writes = 0, append_mb = 0;

  void start(Daemon& d) {
    before = d.service().session().store().stats();
    mb_before = file_mb(d.store_file());
  }
  void stop(Daemon& d) {
    const auto after = d.service().session().store().stats();
    hits += static_cast<double>(after.hits - before.hits);
    misses += static_cast<double>(after.misses - before.misses);
    writes += static_cast<double>(after.writes - before.writes);
    append_mb += file_mb(d.store_file()) - mb_before;
  }
};

/// The mix through the codec and TuningService::handle() directly, from
/// kConnections threads (the socket phases' concurrency), with spans per
/// request: serve.codec (request and response) and serve.handle.<class>.
void run_inprocess_phase(Daemon& daemon, MixGenerator& gen, double seconds,
                         Tracer& tracer, Outcome& out) {
  std::mutex mutex;  // guards gen and out
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  auto worker = [&] {
    try {
      for (;;) {
        MixRequest req;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          if (Clock::now() >= deadline) return;
          req = gen.next();
        }
        const long id = static_cast<long>(req.frame.at("id").as_number());
        const Scope op(tracer, "serve.inprocess", -1, id);
        Json frame;
        {
          const Scope s(tracer, "serve.codec", op.id(), id);
          const std::string wire = ecotune::serve::encode_frame(req.frame);
          ecotune::serve::FrameDecoder decoder;
          decoder.feed(wire.data(), wire.size());
          frame = *decoder.next();
          (void)ecotune::serve::RpcRequest::from_frame(frame);
        }
        Json response;
        {
          const Scope s(tracer,
                        std::string("serve.handle.") +
                            kClassNames[static_cast<std::size_t>(req.cls)],
                        op.id(), id);
          response = daemon.service().handle(frame);
        }
        Json decoded;
        {
          const Scope s(tracer, "serve.codec", op.id(), id);
          const std::string wire = ecotune::serve::encode_frame(response);
          ecotune::serve::FrameDecoder decoder;
          decoder.feed(wire.data(), wire.size());
          decoded = *decoder.next();
        }
        const std::string wrong = check_response(req, decoded, daemon.answers());
        const std::lock_guard<std::mutex> lock(mutex);
        ++out.attempted;
        if (!wrong.empty()) {
          ++out.failed;
          out.problem(wrong);
        }
      }
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mutex);
      out.problem(std::string("in-process phase: ") + e.what());
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kConnections; ++i) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
}

/// The layers inside TuningService construction, timed by run_session()
/// on separate Sessions with the same configuration: three rounds, as the
/// first one of a process runs slow. Returns the samples a fit saw.
double trace_setup_breakdown(const std::string& dir, Tracer& tracer) {
  double train_samples = 0;
  for (int round = 0; round < 3; ++round) {
    {
      const Scope op(tracer, "serve.setup_breakdown");
      train_samples =
          run_session(dir, "serve", {}, false, tracer, op.id(), round)
              .train_samples;
    }
    fs::remove_all(dir);
  }
  return train_samples;
}

}  // namespace

Outcome run_serve_mix(const Options& opts) {
  Outcome out;
  Tracer off(false);
  Tracer traced(opts.trace);
  std::optional<MixGenerator> gen;
  std::vector<std::map<std::string, double>> signatures;
  int daemons = 0;
  Answers first_answers;
  // Each daemon starts on a fresh store, builds the generator on first use
  // (its signatures come from the daemon's own training data) and primes.
  auto start_daemon = [&]() {
    auto d = std::make_unique<Daemon>(opts.work_dir + "/daemon-" +
                                      std::to_string(daemons++));
    if (!gen) {
      signatures = predict_signatures(d->service().session());
      gen.emplace(opts.seed, signatures);
    }
    d->prime(*gen, out);
    // Every daemon must give the hot set the same answers as the first.
    for (const auto& [key, answer] : d->answers()) {
      const auto [it, first] = first_answers.emplace(key, answer);
      if (!first && it->second != answer)
        out.problem("daemon " + std::to_string(daemons - 1) + " answers " +
                    key + " differently from the first daemon");
    }
    return d;
  };

  if (!opts.trace) {
    // The window is split into rounds of about kRoundSeconds, each on a
    // freshly started daemon: every fresh request grows the store's
    // in-memory index, so one long-lived daemon would tie memory to the
    // window length. Each start is one set-up sample.
    const int rounds =
        std::max(1, static_cast<int>(std::lround(opts.seconds / kRoundSeconds)));
    std::vector<double> setup_ms;
    std::vector<double> round_p50;
    std::vector<double> round_tail;
    std::vector<double> round_rate;
    std::size_t requests = 0;
    double window_s = 0;
    double rss_mb = 0;
    double mape = 0;
    for (int r = 0; r < rounds; ++r) {
      auto daemon = start_daemon();
      setup_ms.push_back(daemon->construct_ms());
      const PhaseResult phase =
          run_socket_phase(daemon->socket(), *gen, daemon->answers(),
                           opts.seconds / rounds, daemon->service().config().queue_limit,
                           off, out);
      std::vector<double> latency;
      for (const Sample& s : phase.samples) latency.push_back(s.latency_ms);
      round_p50.push_back(median(latency));
      round_tail.push_back(tail_ms(latency, kServeTailPct));
      round_rate.push_back(static_cast<double>(latency.size()) / phase.window_s);
      std::cerr << "round " << r << ": p50 " << round_p50.back() << " ms, p"
                << kServeTailPct << ' ' << round_tail.back() << " ms, "
                << round_rate.back() << " req/s\n";
      requests += latency.size();
      window_s += phase.window_s;
      if (r == 0) {
        rss_mb = phase.rss_mb_at_mark;
        if (rss_mb == 0) {
          std::cerr << "note: the first round answered fewer than "
                    << kRssMarkRequests << " requests; peak_rss_mb is its end\n";
          rss_mb = peak_rss_mb();
        }
        mape = test_mape_pct(daemon->service().session().model());
      }
    }
    std::cerr << "serve_mix: " << requests << " requests in " << window_s
              << " s over " << rounds << " rounds, fail_ratio "
              << static_cast<double>(out.failed) / static_cast<double>(out.attempted)
              << '\n';
    // Medians over the rounds, so one round the host slowed moves them little.
    out.metric("setup_s", median(setup_ms) / 1000.0);
    out.metric("op_p50_ms", median(round_p50));
    out.metric("op_tail_ms", median(round_tail));
    out.metric("ops_per_s", median(round_rate));
    out.metric("peak_rss_mb", rss_mb);
    out.metric("model_test_mape_pct", mape);
    return out;
  }

  // Traced run: the set-up breakdown, then three phases of 0.3 x the window
  // (at most one round) on their own daemons -- untraced socket, traced
  // socket, in-process -- and 0.1 x the window of model.recommend() alone.
  const double phase_s = std::min(0.3 * opts.seconds, kRoundSeconds);
  const double train_samples =
      trace_setup_breakdown(opts.work_dir + "/breakdown", traced);
  StoreDelta store;
  PhaseResult untraced_phase;
  PhaseResult traced_phase;
  for (Tracer* tracer : {&off, &traced}) {
    auto daemon = start_daemon();
    store.start(*daemon);
    PhaseResult phase = run_socket_phase(
        daemon->socket(), *gen, daemon->answers(), phase_s,
        daemon->service().config().queue_limit, *tracer, out);
    store.stop(*daemon);
    (tracer == &off ? untraced_phase : traced_phase) = std::move(phase);
  }
  {
    auto daemon = start_daemon();
    run_inprocess_phase(*daemon, *gen, phase_s, traced, out);
    const auto& model = daemon->service().session().model();
    const auto& spec = daemon->service().session().config().spec();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; ms_since(t0) < 100.0 * opts.seconds; ++i) {
      const Scope s(traced, "model.recommend");
      (void)model.recommend(signatures[i % signatures.size()], spec);
    }
  }

  const double requests = static_cast<double>(untraced_phase.samples.size() +
                                              traced_phase.samples.size());
  const double train_ms = median(traced.self_ms("nn.train"));
  out.metric("api.session_open_ms", median(traced.self_ms("api.session_open")));
  out.metric("api.session_close_ms",
             median(traced.self_ms("api.session_close")));
  out.metric("model.acquire_ms", median(traced.self_ms("model.acquire")));
  out.metric("nn.train_ms", train_ms);
  out.metric("nn.train_ns_per_sample", train_ms * 1e6 / train_samples);
  out.metric("store.hits", store.hits / requests);
  out.metric("store.misses", store.misses / requests);
  out.metric("store.writes", store.writes / requests);
  out.metric("store.hit_ratio", store.hits + store.misses > 0
                                    ? store.hits / (store.hits + store.misses)
                                    : 0.0);
  out.metric("store.append_mb", store.append_mb / requests);

  out.metric("serve.codec_us",
             median(traced.per_request_ms("serve.codec")) * 1000.0);
  std::vector<double> bytes;
  for (const Sample& s : traced_phase.samples)
    bytes.push_back(static_cast<double>(s.response_bytes));
  out.metric("serve.response_bytes", mean(bytes));
  std::array<double, kClassCount> handle_p50{};
  for (std::size_t c = 0; c < kClassCount; ++c) {
    const auto d = traced.duration_ms(std::string("serve.handle.") + kClassNames[c]);
    handle_p50[c] = d.empty() ? 0.0 : median(d);
    out.metric(std::string("serve.handle_ms.") + kClassNames[c], handle_p50[c]);
  }
  std::vector<double> wait;
  for (const Sample& s : traced_phase.samples)
    wait.push_back(s.latency_ms - handle_p50[static_cast<std::size_t>(s.cls)]);
  out.metric("serve.wait_ms", median(wait));
  out.metric("model.recommend_us",
             median(traced.duration_ms("model.recommend")) * 1000.0);
  out.metric("trace.overhead_ms",
             p50_of(traced_phase.samples) - p50_of(untraced_phase.samples));
  // Share of each in-process request that the codec and handle spans cover.
  const auto op_self = traced.self_ms("serve.inprocess");
  const auto op_total = traced.duration_ms("serve.inprocess");
  std::vector<double> coverage;
  for (std::size_t i = 0; i < op_total.size(); ++i)
    coverage.push_back(100.0 * (1.0 - op_self[i] / op_total[i]));
  out.metric("trace.span_coverage_pct", median(coverage));

  traced.write(opts.work_dir + "/../trace-" + opts.workload + "-" +
               std::to_string(opts.seed) + ".json");
  return out;
}

}  // namespace perfbench
