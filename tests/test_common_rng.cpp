#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ecotune {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng base(7);
  Rng f1 = base.fork("node-0");
  Rng f2 = base.fork("node-0");
  Rng f3 = base.fork("node-1");
  EXPECT_EQ(f1(), f2());
  EXPECT_NE(f1(), f3());
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng a(9), b(9);
  (void)a.fork("x");
  EXPECT_EQ(a(), b());
}

TEST(Rng, NumericForkIsDeterministicAndTagKeyed) {
  Rng base(7);
  Rng f1 = base.fork(std::uint64_t{3});
  Rng f2 = base.fork(std::uint64_t{3});
  Rng f3 = base.fork(std::uint64_t{4});
  EXPECT_EQ(f1(), f2());
  EXPECT_NE(f1(), f3());
  // The numeric-tag family must not advance the parent either.
  Rng a(9), b(9);
  (void)a.fork(std::uint64_t{0});
  EXPECT_EQ(a(), b());
}

TEST(Rng, ForksWithDifferentTagsNeverShareFirstSixteenDraws) {
  // Regression guard for the task-keyed determinism convention: the
  // QLearningTuner derives one stream per episode index, so any pair of
  // distinct tags (numeric or string, including the cross-family pairs)
  // must diverge within the first 16 draws.
  Rng base(0x9173A2);
  std::vector<std::vector<std::uint64_t>> draws;
  for (std::uint64_t tag = 0; tag < 64; ++tag) {
    Rng fork = base.fork(tag);
    std::vector<std::uint64_t> sequence(16);
    for (auto& v : sequence) v = fork();
    draws.push_back(std::move(sequence));
  }
  for (std::uint64_t tag = 0; tag < 64; ++tag) {
    Rng fork = base.fork("ep-" + std::to_string(tag));
    std::vector<std::uint64_t> sequence(16);
    for (auto& v : sequence) v = fork();
    draws.push_back(std::move(sequence));
  }
  for (std::size_t i = 0; i < draws.size(); ++i) {
    for (std::size_t j = i + 1; j < draws.size(); ++j) {
      EXPECT_NE(draws[i], draws[j]) << "forks " << i << " and " << j
                                    << " produced identical first-16 draws";
    }
  }
}

TEST(Rng, UniformInRange) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntRejectsInvertedBounds) {
  Rng r(13);
  EXPECT_THROW((void)r.uniform_int(3, 2), PreconditionError);
  EXPECT_THROW((void)r.uniform_int(std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min()),
               PreconditionError);
  EXPECT_EQ(r.uniform_int(5, 5), 5);  // degenerate span is fine
}

TEST(Rng, UniformIntHandlesExtremeSpans) {
  Rng r(19);
  // Full 64-bit span: the rejection loop must not spin or overflow.
  for (int i = 0; i < 100; ++i)
    (void)r.uniform_int(std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::max());
  // Negative-heavy range stays inside its bounds.
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-7, -3);
    EXPECT_GE(v, -7);
    EXPECT_LE(v, -3);
  }
}

TEST(Rng, UniformIntIsUnbiased) {
  // A modulo draw over a span that does not divide 2^64 over-selects the
  // low residues; the Lemire rejection draw must keep every cell near the
  // expected frequency. Span 3 with 60000 draws: expect ~20000 per cell,
  // tolerate 4 sigma (~4 * sqrt(n*p*(1-p)) ~ 460).
  Rng r(23);
  const int n = 60000;
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < n; ++i) ++counts[r.uniform_int(0, 2)];
  for (int c : counts) EXPECT_NEAR(c, n / 3, 460);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng r(17);
  const int n = 20000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, Fnv1aIsStable) {
  EXPECT_EQ(fnv1a("node-0"), fnv1a("node-0"));
  EXPECT_NE(fnv1a("node-0"), fnv1a("node-1"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

}  // namespace
}  // namespace ecotune
