#include "src/adversary/oblivious.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/bounds/bounds.h"
#include "src/bounds/theorem.h"
#include "src/tree/families.h"

namespace dynbcast {
namespace {

TEST(StaticAdversaryTest, PathCostsExactlyNMinus1) {
  for (const std::size_t n : {2u, 5u, 16u, 40u}) {
    StaticPathAdversary adv(n);
    const BroadcastRun run = runAdversary(n, adv, defaultRoundCap(n));
    EXPECT_TRUE(run.completed);
    EXPECT_EQ(run.rounds, n - 1);
  }
}

TEST(StaticAdversaryTest, TreeCostsItsHeight) {
  const RootedTree broom = makeBroom({0, 1, 2, 3, 4, 5, 6}, 4);
  StaticTreeAdversary adv(broom);
  const BroadcastRun run = runAdversary(7, adv, defaultRoundCap(7));
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.rounds, broom.height());
}

TEST(StaticAdversaryTest, StarCostsOneRound) {
  StaticTreeAdversary adv(makeStar(9, 4));
  const BroadcastRun run = runAdversary(9, adv, 10);
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.rounds, 1u);
}

TEST(RandomAdversaryTest, CompletesWithinTheoremBound) {
  // Theorem 3.1's upper bound holds for EVERY adversary.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const std::size_t n : {4u, 12u, 33u}) {
      UniformRandomAdversary adv(n, seed);
      const BroadcastRun run = runAdversary(n, adv, defaultRoundCap(n));
      EXPECT_TRUE(run.completed);
      EXPECT_LE(run.rounds, bounds::linearUpper(n));
    }
  }
}

TEST(RandomAdversaryTest, ResetReplaysIdenticalRun) {
  UniformRandomAdversary adv(15, 77);
  const BroadcastRun a = runAdversary(15, adv, defaultRoundCap(15));
  const BroadcastRun b = runAdversary(15, adv, defaultRoundCap(15));
  EXPECT_EQ(a.rounds, b.rounds);  // runAdversary resets the RNG

  // The two-phase line keeps its window and round count; reset() rewinds
  // both, so a second pass plays the same trees.
  TwoPhaseAdversary twoPhase(15);
  std::vector<std::vector<std::size_t>> first;
  for (std::size_t r = 0; r < bounds::lowerBound(15); ++r) {
    first.push_back(twoPhase.next().parents());
  }
  twoPhase.reset();
  for (std::size_t r = 0; r < first.size(); ++r) {
    EXPECT_EQ(twoPhase.next().parents(), first[r]) << "round " << r + 1;
  }
}

void expectTwoPhaseMeetsLowerBound(std::size_t n) {
  TwoPhaseAdversary adv(n);
  const BroadcastRun run = runAdversary(n, adv, defaultRoundCap(n));
  EXPECT_TRUE(run.completed) << "n=" << n;
  EXPECT_EQ(run.rounds, bounds::lowerBound(n)) << "n=" << n;
  const TheoremCheck check = checkTheorem31(n, run.rounds);
  EXPECT_TRUE(check.witnessesLower && check.withinUpper) << check.toString();
}

TEST(TwoPhaseAdversaryTest, MeetsTheLowerBoundExactly) {
  // Equality, not >=: the construction reaches ⌈(3n−1)/2⌉−2 of [14]
  // at every n and no more.
  for (std::size_t n = 2; n <= 256; ++n) expectTwoPhaseMeetsLowerBound(n);
}

TEST(TwoPhaseAdversaryTest, MeetsTheLowerBoundAtLargeN) {
#ifndef NDEBUG
  GTEST_SKIP() << "n = 512..2048 replays run in optimized builds only";
#endif
  for (const std::size_t n : {512u, 1024u, 2048u}) {
    expectTwoPhaseMeetsLowerBound(n);
  }
}

TEST(TwoPhaseAdversaryTest, SingleProcessCompletesInZeroRounds) {
  TwoPhaseAdversary adv(1);
  const BroadcastRun run = runAdversary(1, adv, defaultRoundCap(1));
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.rounds, 0u);
}

TEST(RandomPathAdversaryTest, CompletesAndRespectsBound) {
  RandomPathAdversary adv(20, 5);
  const BroadcastRun run = runAdversary(20, adv, defaultRoundCap(20));
  EXPECT_TRUE(run.completed);
  EXPECT_LE(run.rounds, bounds::linearUpper(20));
}

TEST(AlternatingPathTest, BroadcastNoSlowerThanStatic) {
  AlternatingPathAdversary adv(12);
  const BroadcastRun run = runAdversary(12, adv, defaultRoundCap(12));
  EXPECT_TRUE(run.completed);
  // The forward path's head still makes one hop per two rounds; both ends
  // make progress, so completion is at most ~2n and at least n/2.
  EXPECT_GE(run.rounds, 6u);
  EXPECT_LE(run.rounds, 24u);
}

TEST(ConstrainedAdversaryTest, KLeafStaysWithinLinearBoundTimesK) {
  for (const std::size_t k : {2u, 3u}) {
    KLeafAdversary adv(16, k, 9);
    const BroadcastRun run = runAdversary(16, adv, 16 * (k + 2));
    EXPECT_TRUE(run.completed) << "k=" << k;
    EXPECT_LE(run.rounds, bounds::kLeafUpper(16, k) + 16);
  }
}

TEST(ConstrainedAdversaryTest, KInnerCompletes) {
  KInnerAdversary adv(16, 3, 11);
  const BroadcastRun run = runAdversary(16, adv, defaultRoundCap(16));
  EXPECT_TRUE(run.completed);
}

TEST(ConstrainedAdversaryTest, NamesEncodeK) {
  KLeafAdversary a(8, 3, 1);
  KInnerAdversary b(8, 5, 1);
  EXPECT_EQ(a.name(), "k-leaf:k=3");
  EXPECT_EQ(b.name(), "k-inner:k=5");
}

}  // namespace
}  // namespace dynbcast
