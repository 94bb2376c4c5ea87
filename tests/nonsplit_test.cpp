#include "src/nonsplit/nonsplit.h"

#include <gtest/gtest.h>

#include "src/bounds/bounds.h"
#include "src/nonsplit/reduction.h"
#include "src/support/rng.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {
namespace {

TEST(NonsplitGeneratorTest, RandomGraphsAreNonsplitAndReflexive) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform(20);
    const BitMatrix g = randomNonsplitGraph(n, n, rng);
    EXPECT_TRUE(isNonsplit(g));
    EXPECT_TRUE(g.isReflexive());
  }
}

TEST(NonsplitGeneratorTest, SkewedGraphsAreNonsplit) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform(20);
    const BitMatrix g = skewedNonsplitGraph(n, rng);
    EXPECT_TRUE(isNonsplit(g));
    EXPECT_TRUE(g.isReflexive());
  }
}

TEST(NonsplitBroadcastTest, FinishesWithinLogBound) {
  // [2]: broadcast under nonsplit adversaries takes ≤ ⌈log₂ n⌉ rounds.
  Rng rng(3);
  for (const std::size_t n : {4u, 16u, 64u, 128u}) {
    const BroadcastRun run = runNonsplitBroadcast(
        n,
        [n](Rng& r) { return randomNonsplitGraph(n, 2 * n, r); },
        bounds::nonsplitLogUpper(n) + 5, rng);
    EXPECT_TRUE(run.completed) << "n=" << n;
    EXPECT_LE(run.rounds, bounds::nonsplitLogUpper(n) + 2) << "n=" << n;
  }
}

TEST(NonsplitBroadcastTest, SkewedAlsoLogarithmic) {
  Rng rng(4);
  const std::size_t n = 64;
  const BroadcastRun run = runNonsplitBroadcast(
      n, [n](Rng& r) { return skewedNonsplitGraph(n, r); },
      bounds::nonsplitLogUpper(n) + 5, rng);
  EXPECT_TRUE(run.completed);
}

TEST(ReductionTest, ProductOfTreesMatchesManualProduct) {
  Rng rng(5);
  const std::size_t n = 6;
  std::vector<RootedTree> trees;
  for (int i = 0; i < 4; ++i) trees.push_back(randomRootedTree(n, rng));
  BitMatrix manual = trees[0].toMatrix();
  for (int i = 1; i < 4; ++i) manual = manual.product(trees[i].toMatrix());
  EXPECT_EQ(productOfTrees(trees), manual);
}

TEST(ReductionTest, NMinus1TreeProductIsAlwaysNonsplit) {
  // The Charron-Bost–Függer–Nowak lemma, exercised on random sequences.
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.uniform(10);
    std::vector<RootedTree> trees;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      trees.push_back(randomRootedTree(n, rng));
    }
    EXPECT_TRUE(treeProductIsNonsplit(trees)) << "n=" << n;
  }
}

TEST(ReductionTest, WorstCaseSequenceNeedsExactlyNMinus1) {
  // A static path is the extreme case: its (n−2)-fold product is still
  // split (nodes 0 and n−1 share no in-neighbor), the (n−1)-fold is not.
  const std::size_t n = 8;
  std::vector<RootedTree> trees(n - 1, makePath(n));
  EXPECT_EQ(nonsplitPrefixLength(trees), n - 1);
  std::vector<RootedTree> short_(trees.begin(), trees.end() - 1);
  EXPECT_FALSE(treeProductIsNonsplit(short_));
}

TEST(ReductionTest, StarIsImmediatelyNonsplit) {
  const std::vector<RootedTree> trees{makeStar(7, 0)};
  EXPECT_EQ(nonsplitPrefixLength(trees), 1u);
}

TEST(ReductionTest, PrefixLengthNeverExceedsNMinus1) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng.uniform(8);
    std::vector<RootedTree> trees;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      trees.push_back(randomPath(n, rng));
    }
    EXPECT_LE(nonsplitPrefixLength(trees), n - 1) << "n=" << n;
  }
}

}  // namespace
}  // namespace dynbcast
