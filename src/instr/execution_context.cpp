#include "instr/execution_context.hpp"

#include "common/error.hpp"

namespace ecotune::instr {

Seconds ExecutionContext::set_omp_threads(int threads) {
  ensure(threads >= 1 && threads <= node_.spec().total_cores(),
         "ExecutionContext::set_omp_threads: invalid thread count");
  if (threads == omp_threads_) return Seconds(0);
  omp_threads_ = threads;
  node_.idle(kThreadSwitchLatency);
  return kThreadSwitchLatency;
}

Seconds ExecutionContext::apply(const SystemConfig& config) {
  Seconds overhead{0};
  overhead += set_omp_threads(config.threads);
  overhead += adapt_.set_all_core_freqs(config.core);
  overhead += adapt_.set_all_uncore_freqs(config.uncore);
  return overhead;
}

SystemConfig ExecutionContext::current() const {
  SystemConfig c;
  c.threads = omp_threads_;
  c.core = node_.core_freq(0);
  c.uncore = node_.uncore_freq(0);
  return c;
}

}  // namespace ecotune::instr
