#include "src/graph/properties.h"

#include <gtest/gtest.h>

#include <initializer_list>

#include "src/nonsplit/nonsplit.h"
#include "src/support/rng.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {
namespace {

TEST(ReachabilityTest, PathReachesForward) {
  const BitMatrix g = makePath(4).toMatrix();
  const DynBitset fromRoot = reachableFrom(g, 0);
  EXPECT_TRUE(fromRoot.all());
  const DynBitset fromTail = reachableFrom(g, 3);
  EXPECT_EQ(fromTail.count(), 1u);
  EXPECT_TRUE(fromTail.test(3));
}

TEST(RootedTest, TreesAreRooted) {
  Rng rng(3);
  for (int t = 0; t < 20; ++t) {
    const RootedTree tree = randomRootedTree(2 + rng.uniform(12), rng);
    const BitMatrix g = tree.toMatrix();
    EXPECT_TRUE(isRooted(g));
    EXPECT_EQ(findRoot(g).value(), tree.root());
  }
}

TEST(RootedTest, DisconnectedIsNotRooted) {
  BitMatrix g = BitMatrix::identity(4);  // only self-loops
  EXPECT_FALSE(isRooted(g));
  EXPECT_FALSE(findRoot(g).has_value());
}

TEST(NonsplitTest, FullGraphIsNonsplit) {
  EXPECT_TRUE(isNonsplit(BitMatrix::full(5)));
}

TEST(NonsplitTest, IdentityIsNotNonsplitForTwoPlus) {
  EXPECT_FALSE(isNonsplit(BitMatrix::identity(2)));
  EXPECT_TRUE(isNonsplit(BitMatrix::identity(1)));
}

TEST(NonsplitTest, StarWithLoopsIsNonsplit) {
  // The center has an edge to everyone: it is a universal in-neighbor.
  const BitMatrix g = makeStar(6, 2).toMatrix();
  EXPECT_TRUE(isNonsplit(g));
}

TEST(NonsplitTest, PathWithLoopsIsNotNonsplit) {
  // Nodes 0 and 3 share no in-neighbor in a directed path.
  const BitMatrix g = makePath(4).toMatrix();
  EXPECT_FALSE(isNonsplit(g));
}

/// The definition, pair by pair: columns y1 and y2 of g share a row.
bool isNonsplitReference(const BitMatrix& g) {
  const std::size_t n = g.dim();
  for (std::size_t y1 = 0; y1 < n; ++y1) {
    for (std::size_t y2 = y1; y2 < n; ++y2) {
      bool shared = false;
      for (std::size_t x = 0; x < n && !shared; ++x) {
        shared = g.get(x, y1) && g.get(x, y2);
      }
      if (!shared) return false;
    }
  }
  return true;
}

/// g minus every common in-neighbor of (y1, y2): that pair is split
/// afterwards, and most others are still covered. Self-loops stay unless
/// y1 == y2, where every in-edge of y1 goes.
BitMatrix splitPair(BitMatrix g, std::size_t y1, std::size_t y2) {
  for (std::size_t z = 0; z < g.dim(); ++z) {
    if (g.get(z, y1) && g.get(z, y2)) {
      if (z == y2) {
        g.reset(z, y1);
      } else {
        g.reset(z, y2);
      }
    }
  }
  return g;
}

TEST(NonsplitTest, MatchesPairwiseReferenceOnRandomGraphs) {
  Rng rng(12);
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 130u}) {
    for (const double p : {0.0, 0.05, 0.2, 0.5, 0.9}) {
      for (int trial = 0; trial < 3; ++trial) {
        BitMatrix g(n);
        for (std::size_t x = 0; x < n; ++x) {
          for (std::size_t y = 0; y < n; ++y) {
            if (rng.chance(p)) g.set(x, y);
          }
        }
        EXPECT_EQ(isNonsplit(g), isNonsplitReference(g))
            << "n=" << n << " p=" << p;
      }
    }
  }
}

TEST(NonsplitTest, MatchesPairwiseReferenceOnNearNonsplitGraphs) {
  Rng rng(13);
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 130u}) {
    const BitMatrix base = randomNonsplitGraph(n, 2 * n, rng);
    ASSERT_TRUE(isNonsplitReference(base)) << "n=" << n;
    EXPECT_TRUE(isNonsplit(base)) << "n=" << n;
    // y2 on each side of every word boundary below n, and the last node.
    for (const std::size_t y2 :
         std::initializer_list<std::size_t>{0, 1, 63, 64, 127, 128, n - 1}) {
      if (y2 >= n) continue;
      for (const std::size_t y1 : std::initializer_list<std::size_t>{
               0, y2 / 2, y2 > 0 ? y2 - 1 : 0, y2, rng.uniform(y2 + 1)}) {
        const BitMatrix g = splitPair(base, y1, y2);
        ASSERT_FALSE(isNonsplitReference(g))
            << "n=" << n << " y1=" << y1 << " y2=" << y2;
        EXPECT_FALSE(isNonsplit(g))
            << "n=" << n << " y1=" << y1 << " y2=" << y2;
      }
    }
  }
}

TEST(TreeMembershipTest, AcceptsTreeMatrices) {
  Rng rng(7);
  for (int t = 0; t < 30; ++t) {
    const std::size_t n = 1 + rng.uniform(14);
    const RootedTree tree = randomRootedTree(n, rng);
    EXPECT_TRUE(isRootedTreeWithSelfLoops(tree.toMatrix()))
        << tree.toString();
  }
}

TEST(TreeMembershipTest, RejectsMissingSelfLoop) {
  BitMatrix g = makePath(3).toMatrix();
  g.reset(1, 1);
  EXPECT_FALSE(isRootedTreeWithSelfLoops(g));
}

TEST(TreeMembershipTest, RejectsExtraEdge) {
  BitMatrix g = makePath(4).toMatrix();
  g.set(0, 3);  // shortcut edge: node 3 now has in-degree 3
  EXPECT_FALSE(isRootedTreeWithSelfLoops(g));
}

TEST(TreeMembershipTest, RejectsTwoRoots) {
  // Two disjoint paths 0→1 and 2→3 with loops: two in-degree-1 nodes.
  BitMatrix g = BitMatrix::identity(4);
  g.set(0, 1);
  g.set(2, 3);
  EXPECT_FALSE(isRootedTreeWithSelfLoops(g));
}

TEST(TreeMembershipTest, RejectsCycle) {
  BitMatrix g = BitMatrix::identity(3);
  g.set(0, 1);
  g.set(1, 2);
  g.set(2, 0);  // every node in-degree 2: no root
  EXPECT_FALSE(isRootedTreeWithSelfLoops(g));
}

TEST(TreeDepthTest, PathDepthIsNMinus1) {
  EXPECT_EQ(treeDepth(makePath(6).toMatrix()), 5u);
}

TEST(TreeDepthTest, StarDepthIsOne) {
  EXPECT_EQ(treeDepth(makeStar(6, 0).toMatrix()), 1u);
}

TEST(TreeDepthTest, MatchesRootedTreeHeight) {
  Rng rng(11);
  for (int t = 0; t < 20; ++t) {
    const RootedTree tree = randomRootedTree(2 + rng.uniform(10), rng);
    EXPECT_EQ(treeDepth(tree.toMatrix()), tree.height());
  }
}

}  // namespace
}  // namespace dynbcast
