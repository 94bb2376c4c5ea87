#include "src/tree/enumerate.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/graph/properties.h"

namespace dynbcast {
namespace {

TEST(CountTest, CayleyFormula) {
  EXPECT_EQ(rootedTreeCount(1), 1u);
  EXPECT_EQ(rootedTreeCount(2), 2u);
  EXPECT_EQ(rootedTreeCount(3), 9u);
  EXPECT_EQ(rootedTreeCount(4), 64u);
  EXPECT_EQ(rootedTreeCount(5), 625u);
  EXPECT_EQ(rootedTreeCount(6), 7776u);
}

TEST(CountTest, OverflowThrows) {
  EXPECT_THROW(static_cast<void>(rootedTreeCount(64)), std::overflow_error);
}

class EnumerateTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EnumerateTest, VisitsExactlyAllDistinctTrees) {
  const std::size_t n = GetParam();
  std::set<std::string> seen;
  std::uint64_t visited = forEachRootedTree(n, [&](const RootedTree& t) {
    EXPECT_EQ(t.size(), n);
    seen.insert(t.toString());
    return true;
  });
  EXPECT_EQ(visited, rootedTreeCount(n));
  EXPECT_EQ(seen.size(), rootedTreeCount(n)) << "duplicates visited";
}

TEST_P(EnumerateTest, AllVisitedAreValidTreeMatrices) {
  const std::size_t n = GetParam();
  forEachRootedTree(n, [&](const RootedTree& t) {
    EXPECT_TRUE(isRootedTreeWithSelfLoops(t.toMatrix()));
    return true;
  });
}

INSTANTIATE_TEST_SUITE_P(SmallN, EnumerateTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(EnumerateTest, EarlyStopHonored) {
  std::uint64_t count = 0;
  const std::uint64_t visited = forEachRootedTree(4, [&](const RootedTree&) {
    return ++count < 10;
  });
  EXPECT_EQ(visited, 10u);
}

TEST(EnumerateTest, AllRootedTreesMaterializes) {
  std::vector<RootedTree> all;
  forEachRootedTree(3, [&all](const RootedTree& t) {
    all.push_back(t);
    return true;
  });
  EXPECT_EQ(all.size(), 9u);
  // Every root value appears exactly 3 times (3 shapes × 3 roots).
  std::size_t rootZero = 0;
  for (const auto& t : all) {
    if (t.root() == 0) ++rootZero;
  }
  EXPECT_EQ(rootZero, 3u);
}

}  // namespace
}  // namespace dynbcast
