// Unit tests for pC++-style data distributions, including the square-floor
// processor geometry artifact of §4.1.
#include <gtest/gtest.h>

#include <set>

#include "rt/distribution.hpp"
#include "util/error.hpp"

namespace xp::rt {
namespace {

// Number of threads owning at least one element.
int active_threads(const Distribution& d) {
  int n = 0;
  for (int t = 0; t < d.n_threads(); ++t) n += d.owned_count(t) > 0;
  return n;
}

TEST(Dist1D, BlockOwners) {
  const auto d = Distribution::d1(Dist::Block, 8, 4);
  // ceil(8/4) = 2 per thread.
  for (int i = 0; i < 8; ++i) EXPECT_EQ(d.owner(i), i / 2);
  EXPECT_EQ(active_threads(d), 4);
}

TEST(Dist1D, BlockUneven) {
  const auto d = Distribution::d1(Dist::Block, 10, 4);
  // ceil(10/4) = 3: owners 0,0,0,1,1,1,2,2,2,3.
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(3), 1);
  EXPECT_EQ(d.owner(8), 2);
  EXPECT_EQ(d.owner(9), 3);
  EXPECT_EQ(d.owned_count(3), 1);
}

TEST(Dist1D, BlockFewerElementsThanThreads) {
  const auto d = Distribution::d1(Dist::Block, 3, 8);
  EXPECT_EQ(active_threads(d), 3);
  EXPECT_EQ(d.owned_count(7), 0);
}

TEST(Dist1D, CyclicOwners) {
  const auto d = Distribution::d1(Dist::Cyclic, 10, 4);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.owner(i), i % 4);
}

TEST(Dist1D, WholeOwnsEverythingOnThread0) {
  const auto d = Distribution::d1(Dist::Whole, 10, 4);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.owner(i), 0);
  EXPECT_EQ(active_threads(d), 1);
}

TEST(Dist2D, SquareFloorGeometry) {
  // The paper's artifact: N=8 -> 2x2 processor grid, 4 processors idle.
  const auto d8 =
      Distribution::d2(Dist::Block, Dist::Block, 8, 8, 8);
  EXPECT_EQ(d8.grid().rows, 2);
  EXPECT_EQ(d8.grid().cols, 2);
  EXPECT_EQ(active_threads(d8), 4);

  const auto d16 = Distribution::d2(Dist::Block, Dist::Block, 8, 8, 16);
  EXPECT_EQ(d16.grid().rows, 4);
  EXPECT_EQ(active_threads(d16), 16);

  const auto d32 = Distribution::d2(Dist::Block, Dist::Block, 8, 8, 32);
  EXPECT_EQ(d32.grid().rows, 5);  // floor(sqrt(32))
  // 8 rows of blocks over 5 coords with block=ceil(8/5)=2 -> coords 0..3.
  EXPECT_EQ(active_threads(d32), 16);
}

TEST(Dist2D, SquareFloorIdenticalFor4And8) {
  // The reason Figure 4 shows no improvement from 4 to 8 processors.
  const auto d4 = Distribution::d2(Dist::Block, Dist::Block, 8, 8, 4);
  const auto d8 = Distribution::d2(Dist::Block, Dist::Block, 8, 8, 8);
  for (std::int64_t e = 0; e < 64; ++e) EXPECT_EQ(d4.owner(e), d8.owner(e));
}

TEST(Dist2D, FactoredGeometryUsesAllProcessors) {
  const auto d = Distribution::d2(Dist::Block, Dist::Block, 8, 8, 8,
                                  Geometry::Factored);
  EXPECT_EQ(d.grid().total(), 8);
  EXPECT_EQ(active_threads(d), 8);
}

TEST(Dist2D, WholeCollapsesADimension) {
  const auto d = Distribution::d2(Dist::Block, Dist::Whole, 8, 8, 4);
  EXPECT_EQ(d.grid().rows, 4);
  EXPECT_EQ(d.grid().cols, 1);
  // Whole column dimension: owner depends only on the row.
  for (std::int64_t r = 0; r < 8; ++r)
    for (std::int64_t c = 1; c < 8; ++c)
      EXPECT_EQ(d.owner_rc(r, c), d.owner_rc(r, 0));
}

TEST(Dist2D, WholeWholeIsSerial) {
  const auto d = Distribution::d2(Dist::Whole, Dist::Whole, 8, 8, 16);
  EXPECT_EQ(active_threads(d), 1);
}

TEST(Dist2D, CyclicBlockMix) {
  const auto d = Distribution::d2(Dist::Cyclic, Dist::Block, 8, 8, 4);
  // 2x2 grid; cyclic rows alternate row coordinate, block cols split 0-3/4-7.
  EXPECT_EQ(d.owner_rc(0, 0), 0);
  EXPECT_EQ(d.owner_rc(1, 0), 2);  // row coord 1, col coord 0
  EXPECT_EQ(d.owner_rc(0, 4), 1);
  EXPECT_EQ(d.owner_rc(3, 7), 3);
}

TEST(Dist2D, LinearAndRcAgree) {
  const auto d = Distribution::d2(Dist::Block, Dist::Cyclic, 6, 5, 9);
  for (std::int64_t r = 0; r < 6; ++r)
    for (std::int64_t c = 0; c < 5; ++c)
      EXPECT_EQ(d.owner(r * 5 + c), d.owner_rc(r, c));
}

TEST(Distribution, OwnedByPartitionsAllElements) {
  const auto d = Distribution::d2(Dist::Block, Dist::Block, 7, 9, 6);
  std::set<std::int64_t> seen;
  std::int64_t total = 0;
  for (int t = 0; t < d.n_threads(); ++t) {
    const auto mine = d.owned_by(t);
    EXPECT_EQ(static_cast<std::int64_t>(mine.size()), d.owned_count(t));
    for (auto e : mine) {
      EXPECT_TRUE(seen.insert(e).second) << "element owned twice";
      EXPECT_EQ(d.owner(e), t);
    }
    total += static_cast<std::int64_t>(mine.size());
  }
  EXPECT_EQ(total, d.size());
}

TEST(Distribution, RejectsBadArguments) {
  EXPECT_THROW(Distribution::d1(Dist::Block, 0, 4), util::Error);
  EXPECT_THROW(Distribution::d1(Dist::Block, 4, 0), util::Error);
  EXPECT_THROW(Distribution::d2(Dist::Block, Dist::Block, 0, 4, 4),
               util::Error);
  const auto d = Distribution::d1(Dist::Block, 4, 2);
  EXPECT_THROW(d.owner(-1), util::Error);
  EXPECT_THROW(d.owner(4), util::Error);
  EXPECT_THROW(d.owned_by(2), util::Error);
  EXPECT_THROW(d.owner_rc(0, 0), util::Error);  // 1D distribution
}

TEST(Distribution, StrDescribes) {
  const auto d1 = Distribution::d1(Dist::Cyclic, 16, 4);
  EXPECT_NE(d1.str().find("Cyclic"), std::string::npos);
  const auto d2 = Distribution::d2(Dist::Block, Dist::Whole, 4, 4, 4);
  EXPECT_NE(d2.str().find("Whole"), std::string::npos);
}

TEST(Distribution, ToStringNames) {
  EXPECT_STREQ(to_string(Dist::Block), "Block");
  EXPECT_STREQ(to_string(Dist::Cyclic), "Cyclic");
  EXPECT_STREQ(to_string(Dist::Whole), "Whole");
}

}  // namespace
}  // namespace xp::rt
