// Self-tests of the benchmark's own code: the nearest-rank percentile and
// its sample-count rule, the class shares the mix generator produces for a
// fixed seed, and the closed-loop invariant. perfbench/run.py runs them
// before every measurement and refuses to measure when one fails.
#include <cmath>
#include <functional>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"
#include "mix.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

struct Checker {
  int checks = 0;
  int failures = 0;
  void expect(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++failures;
      std::cerr << "selftest FAILED: " << what << '\n';
    }
  }
  void expect_throws(const std::function<void()>& fn, const std::string& what) {
    bool threw = false;
    try {
      fn();
    } catch (const std::logic_error&) {
      threw = true;
    }
    expect(threw, what);
  }
};

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // descending: order must not matter
  return v;
}

void test_percentiles(Checker& t) {
  t.expect(nearest_rank(one_to(10), 50) == 5, "p50 of 1..10 is 5");
  t.expect(nearest_rank(one_to(10), 90) == 9, "p90 of 1..10 is 9");
  t.expect(nearest_rank(one_to(10), 91) == 10, "p91 of 1..10 is 10");
  t.expect(nearest_rank(one_to(10), 1) == 1, "p1 of 1..10 is 1");
  t.expect(nearest_rank(one_to(100), 99) == 99, "p99 of 1..100 is 99");
  t.expect(nearest_rank(one_to(1), 99) == 1, "any percentile of one sample");
  t.expect(nearest_rank({3, 1, 2}, 50) == 2, "p50 of {3,1,2} is 2");
  t.expect(median({4, 1, 3, 2}) == 2, "nearest-rank median of 4 is the 2nd");

  t.expect(supported_tail_pct(5) == 50, "5 samples support only p50");
  t.expect(supported_tail_pct(39) == 50, "39 samples: p75 leaves 9 beyond");
  t.expect(supported_tail_pct(40) == 75, "40 samples support p75");
  t.expect(supported_tail_pct(99) == 75, "99 samples: p90 leaves 9 beyond");
  t.expect(supported_tail_pct(100) == 90, "100 samples support p90");
  t.expect(supported_tail_pct(999) == 90, "999 samples: p99 leaves 9 beyond");
  t.expect(supported_tail_pct(1000) == 99, "1000 samples support p99");
}

void test_mix_shares(Checker& t) {
  const std::vector<std::map<std::string, double>> sigs = {
      {{"a", 1.0}, {"b", 2.0}}, {{"a", 3.0}, {"b", 4.0}}};
  constexpr int kRequests = 20000;
  MixGenerator gen(7, sigs);
  std::array<int, kClassCount> counts{};
  for (int i = 0; i < kRequests; ++i)
    ++counts[static_cast<std::size_t>(gen.next().cls)];
  // Golden counts for seed 7: a change here changes every serve_mix run.
  const std::array<int, kClassCount> golden = {10096, 4992, 2020, 1909, 983};
  for (std::size_t c = 0; c < kClassCount; ++c) {
    const double share = static_cast<double>(counts[c]) / kRequests;
    t.expect(std::abs(share - kClassShares[c]) < 0.01,
             std::string("share of ") + kClassNames[c] + " is " +
                 std::to_string(share));
    t.expect(counts[c] == golden[c], std::string("seed-7 count of ") +
                                         kClassNames[c] + " is " +
                                         std::to_string(counts[c]));
  }

  MixGenerator a(11, sigs);
  MixGenerator b(11, sigs);
  MixGenerator c(12, sigs);
  bool same = true;
  bool differs = false;
  for (int i = 0; i < 200; ++i) {
    const std::string ra = a.next().frame.dump(-1);
    same = same && ra == b.next().frame.dump(-1);
    differs = differs || ra != c.next().frame.dump(-1);
  }
  t.expect(same, "one seed gives one request sequence");
  t.expect(differs, "another seed gives another sequence");

  MixGenerator hot(7, sigs);
  t.expect(hot.hot_set().size() == 3 * 19 + 6, "hot set is 19 x 3 dta + 6 static");
}

void test_closed_loop(Checker& t) {
  ClosedLoop loop(2, 8);
  loop.on_send(0);
  t.expect_throws([&] { loop.on_send(0); },
                  "a second request on a busy connection is refused");
  t.expect_throws([&] { loop.on_reply(1); }, "a reply on an idle connection");
  loop.on_send(1);
  t.expect(loop.in_flight() == 2, "two in flight");
  loop.on_reply(0);
  t.expect(loop.in_flight() == 1 && !loop.busy(0) && loop.busy(1),
           "a reply frees its connection");
  loop.on_send(0);

  ClosedLoop small(3, 2);
  small.on_send(0);
  small.on_send(1);
  t.expect_throws([&] { small.on_send(2); },
                  "more than queue_limit in flight is refused");
}

}  // namespace

int run_selftests() {
  Checker t;
  test_percentiles(t);
  test_mix_shares(t);
  test_closed_loop(t);
  std::cerr << "selftest: " << t.checks << " checks, " << t.failures
            << " failures\n";
  return t.failures;
}

}  // namespace perfbench
