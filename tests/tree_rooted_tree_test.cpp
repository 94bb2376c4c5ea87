#include "src/tree/rooted_tree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/support/assert.h"
#include "src/support/rng.h"
#include "src/tree/generators.h"

namespace dynbcast {
namespace {

TEST(RootedTreeTest, TrivialTree) {
  const RootedTree t = RootedTree::trivial();
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.height(), 0u);
  EXPECT_EQ(t.leafCount(), 1u);  // the lone root is a leaf
  EXPECT_EQ(t.innerCount(), 0u);
}

TEST(RootedTreeTest, PathStructure) {
  // 2 → 0 → 1
  const RootedTree t(2, {2, 0, 2});
  EXPECT_EQ(t.root(), 2u);
  EXPECT_EQ(t.parent(0), 2u);
  EXPECT_EQ(t.parent(1), 0u);
  EXPECT_EQ(t.depthOf(2), 0u);
  EXPECT_EQ(t.depthOf(0), 1u);
  EXPECT_EQ(t.depthOf(1), 2u);
  EXPECT_EQ(t.height(), 2u);
  EXPECT_EQ(t.leafCount(), 1u);
  EXPECT_EQ(t.innerCount(), 2u);
}

TEST(RootedTreeTest, ChildrenComputed) {
  // Star rooted at 1.
  const RootedTree t(1, {1, 1, 1, 1});
  EXPECT_EQ(t.childrenOf(1).size(), 3u);
  EXPECT_TRUE(t.childrenOf(0).empty());
  const auto leaves = t.leaves();
  EXPECT_EQ(leaves.size(), 3u);
  EXPECT_TRUE(std::find(leaves.begin(), leaves.end(), 1u) == leaves.end());
}

TEST(RootedTreeTest, BfsOrderStartsAtRootAndCoversAll) {
  Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    const std::size_t n = 1 + rng.uniform(20);
    const RootedTree t = randomRootedTree(n, rng);
    const auto order = t.bfsOrder();
    ASSERT_EQ(order.size(), n);
    EXPECT_EQ(order[0], t.root());
    // Parents appear before children.
    std::vector<std::size_t> pos(n);
    for (std::size_t p = 0; p < n; ++p) pos[order[p]] = p;
    for (std::size_t v = 0; v < n; ++v) {
      if (v != t.root()) {
        EXPECT_LT(pos[t.parent(v)], pos[v]);
      }
    }
  }
}

TEST(RootedTreeTest, MatrixHasSelfLoopsAndTreeEdges) {
  const RootedTree t(0, {0, 0, 1});
  const BitMatrix m = t.toMatrix();
  EXPECT_TRUE(m.isReflexive());
  EXPECT_TRUE(m.get(0, 1));
  EXPECT_TRUE(m.get(1, 2));
  EXPECT_FALSE(m.get(0, 2));
  EXPECT_EQ(m.countOnes(), 2 * 3 - 1);
}

TEST(RootedTreeTest, RejectsCyclicParentLinks) {
  // 0 is root, but 1 and 2 point at each other.
  EXPECT_THROW(RootedTree(0, {0, 2, 1}), AssertionError);
}

TEST(RootedTreeTest, RejectsBadRoot) {
  EXPECT_THROW(RootedTree(1, {0, 0}), AssertionError);  // parent[1] != 1
  EXPECT_THROW(RootedTree(5, {0, 0}), AssertionError);  // root out of range
}

TEST(RootedTreeTest, RejectsSelfParentNonRoot) {
  EXPECT_THROW(RootedTree(0, {0, 1}), AssertionError);
}

TEST(RootedTreeTest, RejectsEmptyTree) {
  EXPECT_THROW(RootedTree(0, {}), AssertionError);
}

TEST(RootedTreeTest, EqualityComparesShape) {
  const RootedTree a(0, {0, 0});
  const RootedTree b(0, {0, 0});
  const RootedTree c(1, {1, 1});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(RootedTreeTest, LeafPlusInnerEqualsN) {
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    const std::size_t n = 1 + rng.uniform(25);
    const RootedTree t = randomRootedTree(n, rng);
    EXPECT_EQ(t.leafCount() + t.innerCount(), n);
  }
}

TEST(RootedTreeTest, DepthConsistentWithParents) {
  Rng rng(6);
  const RootedTree t = randomRootedTree(40, rng);
  for (std::size_t v = 0; v < 40; ++v) {
    if (v == t.root()) {
      EXPECT_EQ(t.depthOf(v), 0u);
    } else {
      EXPECT_EQ(t.depthOf(v), t.depthOf(t.parent(v)) + 1);
    }
  }
}

TEST(RootedTreeTest, ToStringMentionsRootAndParents) {
  const RootedTree t(0, {0, 0});
  const std::string s = t.toString();
  EXPECT_NE(s.find("root=0"), std::string::npos);
  EXPECT_NE(s.find("parents=[0,0]"), std::string::npos);
}

}  // namespace
}  // namespace dynbcast
