#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "common/frequency.hpp"
#include "common/units.hpp"

namespace ecotune {
namespace {

TEST(Quantity, ArithmeticAndComparison) {
  const Joules a(10.0);
  const Joules b(2.5);
  EXPECT_DOUBLE_EQ((a + b).value(), 12.5);
  EXPECT_DOUBLE_EQ((a - b).value(), 7.5);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 20.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 20.0);
  EXPECT_DOUBLE_EQ((a / 2.0).value(), 5.0);
  EXPECT_DOUBLE_EQ(a / b, 4.0);
  EXPECT_LT(b, a);
  EXPECT_EQ(Joules(10.0), a);
}

TEST(Quantity, CompoundAssignment) {
  Joules e(1.0);
  e += Joules(2.0);
  e -= Joules(0.5);
  e *= 4.0;
  e /= 2.0;
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(Quantity, CrossUnitPhysics) {
  const Watts p(250.0);
  const Seconds t(4.0);
  EXPECT_DOUBLE_EQ((p * t).value(), 1000.0);
}

TEST(FreqT, ConstructionAndConversion) {
  const CoreFreq f = CoreFreq::mhz(2400);
  EXPECT_EQ(f.as_mhz(), 2400);
  EXPECT_DOUBLE_EQ(f.as_ghz(), 2.4);
  EXPECT_DOUBLE_EQ(f.as_hz(), 2.4e9);
  EXPECT_EQ(CoreFreq::ghz(2.4), f);
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(CoreFreq{}.valid());
}

TEST(FreqT, GhzRounding) {
  EXPECT_EQ(CoreFreq::ghz(1.2999999).as_mhz(), 1300);
  EXPECT_EQ(CoreFreq::ghz(2.0000001).as_mhz(), 2000);
}

TEST(FreqT, Formatting) {
  std::ostringstream os;
  os << UncoreFreq::mhz(1700);
  EXPECT_EQ(os.str(), "1.7GHz");
  EXPECT_EQ(to_string(CoreFreq::mhz(2500)), "2.5GHz");
}

TEST(FreqT, Hashable) {
  std::unordered_set<CoreFreq> set;
  set.insert(CoreFreq::mhz(1200));
  set.insert(CoreFreq::mhz(1200));
  set.insert(CoreFreq::mhz(1300));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FrequencyGrid, BasicProperties) {
  const CoreFreqGrid grid(CoreFreq::mhz(1200), CoreFreq::mhz(2500), 100);
  EXPECT_EQ(grid.size(), 14u);
  EXPECT_EQ(grid.at(0), CoreFreq::mhz(1200));
  EXPECT_EQ(grid.at(13), CoreFreq::mhz(2500));
  EXPECT_TRUE(grid.contains(CoreFreq::mhz(1800)));
  EXPECT_FALSE(grid.contains(CoreFreq::mhz(1850)));
  EXPECT_FALSE(grid.contains(CoreFreq::mhz(2600)));
  EXPECT_EQ(grid.index_of(CoreFreq::mhz(1500)), 3u);
}

TEST(FrequencyGrid, RejectsInvalidConstruction) {
  EXPECT_THROW(CoreFreqGrid(CoreFreq::mhz(2000), CoreFreq::mhz(1000), 100),
               PreconditionError);
  EXPECT_THROW(CoreFreqGrid(CoreFreq::mhz(1000), CoreFreq::mhz(2050), 100),
               PreconditionError);
  EXPECT_THROW(CoreFreqGrid(CoreFreq::mhz(1000), CoreFreq::mhz(2000), 0),
               PreconditionError);
}

TEST(FrequencyGrid, ClampSnapsToNearest) {
  const CoreFreqGrid grid(CoreFreq::mhz(1200), CoreFreq::mhz(2500), 100);
  EXPECT_EQ(grid.clamp(CoreFreq::mhz(100)), CoreFreq::mhz(1200));
  EXPECT_EQ(grid.clamp(CoreFreq::mhz(9999)), CoreFreq::mhz(2500));
  EXPECT_EQ(grid.clamp(CoreFreq::mhz(1849)), CoreFreq::mhz(1800));
  EXPECT_EQ(grid.clamp(CoreFreq::mhz(1851)), CoreFreq::mhz(1900));
}

TEST(FrequencyGrid, NeighborhoodInterior) {
  const UncoreFreqGrid grid(UncoreFreq::mhz(1300), UncoreFreq::mhz(3000),
                            100);
  const auto n = grid.neighborhood(UncoreFreq::mhz(2100), 1);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n[0], UncoreFreq::mhz(2000));
  EXPECT_EQ(n[1], UncoreFreq::mhz(2100));
  EXPECT_EQ(n[2], UncoreFreq::mhz(2200));
}

TEST(FrequencyGrid, NeighborhoodClampedAtEdges) {
  const UncoreFreqGrid grid(UncoreFreq::mhz(1300), UncoreFreq::mhz(3000),
                            100);
  const auto lo = grid.neighborhood(UncoreFreq::mhz(1300), 1);
  ASSERT_EQ(lo.size(), 2u);
  EXPECT_EQ(lo[0], UncoreFreq::mhz(1300));
  const auto hi = grid.neighborhood(UncoreFreq::mhz(3000), 2);
  ASSERT_EQ(hi.size(), 3u);
  EXPECT_EQ(hi.back(), UncoreFreq::mhz(3000));
}

// Property sweep: every grid point round-trips through index_of/at and is
// its own clamp.
class GridRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(GridRoundTrip, IndexAndClampRoundTrip) {
  const CoreFreqGrid grid(CoreFreq::mhz(1200), CoreFreq::mhz(2500), 100);
  const auto f = CoreFreq::mhz(GetParam());
  EXPECT_EQ(grid.at(grid.index_of(f)), f);
  EXPECT_EQ(grid.clamp(f), f);
}

INSTANTIATE_TEST_SUITE_P(AllCoreFreqs, GridRoundTrip,
                         ::testing::Range(1200, 2600, 100));

}  // namespace
}  // namespace ecotune
