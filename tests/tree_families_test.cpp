#include "src/tree/families.h"

#include <gtest/gtest.h>

#include "src/support/assert.h"
#include "src/support/rng.h"

namespace dynbcast {
namespace {

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

TEST(PathTest, IdentityPathShape) {
  const RootedTree p = makePath(5);
  EXPECT_EQ(p.root(), 0u);
  EXPECT_EQ(p.height(), 4u);
  EXPECT_EQ(p.leafCount(), 1u);
  for (std::size_t v = 1; v < 5; ++v) EXPECT_EQ(p.parent(v), v - 1);
}

TEST(PathTest, PermutedPathFollowsOrder) {
  const RootedTree p = makePath({3, 1, 0, 2});
  EXPECT_EQ(p.root(), 3u);
  EXPECT_EQ(p.parent(1), 3u);
  EXPECT_EQ(p.parent(0), 1u);
  EXPECT_EQ(p.parent(2), 0u);
}

TEST(PathTest, RejectsNonPermutation) {
  EXPECT_THROW(makePath({0, 0, 1}), AssertionError);
  EXPECT_THROW(makePath({0, 5, 1}), AssertionError);
}

TEST(StarTest, CenterHasAllChildren) {
  const RootedTree s = makeStar(7, 3);
  EXPECT_EQ(s.root(), 3u);
  EXPECT_EQ(s.height(), 1u);
  EXPECT_EQ(s.leafCount(), 6u);
  EXPECT_EQ(s.childrenOf(3).size(), 6u);
}

TEST(StarTest, SingleNodeStar) {
  const RootedTree s = makeStar(1, 0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.height(), 0u);
}

TEST(BroomTest, HandleThenBristles) {
  const RootedTree b = makeBroom(iota(6), 3);
  // Path 0→1→2, bristles 3,4,5 under node 2.
  EXPECT_EQ(b.root(), 0u);
  EXPECT_EQ(b.parent(1), 0u);
  EXPECT_EQ(b.parent(2), 1u);
  EXPECT_EQ(b.parent(3), 2u);
  EXPECT_EQ(b.parent(5), 2u);
  EXPECT_EQ(b.height(), 3u);
  EXPECT_EQ(b.leafCount(), 3u);
}

TEST(BroomTest, FullHandleIsPath) {
  EXPECT_EQ(makeBroom(iota(5), 5), makePath(5));
}

TEST(BroomTest, HandleOneIsStar) {
  EXPECT_EQ(makeBroom(iota(5), 1), makeStar(5, 0));
}

class FamilyHeightTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FamilyHeightTest, HeightsMatchClosedForms) {
  const std::size_t n = GetParam();
  EXPECT_EQ(makePath(n).height(), n - 1);
  EXPECT_EQ(makeStar(n, 0).height(), n == 1 ? 0u : 1u);
  if (n >= 3) {
    EXPECT_EQ(makeBroom(iota(n), n - 1).height(), n - 1);
    EXPECT_EQ(makeBroom(iota(n), 2).height(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FamilyHeightTest,
                         ::testing::Values(1, 2, 3, 5, 9, 17, 64));

}  // namespace
}  // namespace dynbcast
