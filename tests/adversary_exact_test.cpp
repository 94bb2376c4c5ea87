#include "src/adversary/exact_solver.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/adversary/oblivious.h"
#include "src/bounds/bounds.h"
#include "src/graph/properties.h"
#include "src/sim/broadcast_sim.h"
#include "src/support/assert.h"
#include "src/tree/families.h"

namespace dynbcast {
namespace {

TEST(EncodingTest, IdentityEncodesDiagonal) {
  const std::uint64_t s = ExactSolver::encodeIdentity(4);
  for (std::size_t y = 0; y < 4; ++y) {
    const std::uint64_t row = (s >> (y * 8)) & 0xFF;
    EXPECT_EQ(row, std::uint64_t{1} << y);
  }
}

TEST(EncodingTest, ApplyTreeMatchesRecurrence) {
  // Path 0→1→2 on the identity: heard(1) gains 0, heard(2) gains 1.
  const std::uint64_t s0 = ExactSolver::encodeIdentity(3);
  const std::uint64_t s1 = ExactSolver::applyTreeEncoded(s0, {0, 0, 1});
  EXPECT_EQ((s1 >> 0) & 0xFF, 0b001u);   // heard(0) = {0}
  EXPECT_EQ((s1 >> 8) & 0xFF, 0b011u);   // heard(1) = {0,1}
  EXPECT_EQ((s1 >> 16) & 0xFF, 0b110u);  // heard(2) = {1,2}
}

TEST(EncodingTest, BroadcastDetection) {
  // Make node 2 heard by everyone on n = 3.
  std::uint64_t s = ExactSolver::encodeIdentity(3);
  s |= (std::uint64_t{1} << 2) << 0;
  s |= (std::uint64_t{1} << 2) << 8;
  EXPECT_TRUE(ExactSolver::isBroadcastState(s, 3));
  EXPECT_FALSE(
      ExactSolver::isBroadcastState(ExactSolver::encodeIdentity(3), 3));
}

TEST(EncodingTest, SingleStarRoundIsBroadcast) {
  const std::uint64_t s0 = ExactSolver::encodeIdentity(4);
  // Star centered at 1.
  const std::uint64_t s1 = ExactSolver::applyTreeEncoded(s0, {1, 1, 1, 1});
  EXPECT_TRUE(ExactSolver::isBroadcastState(s1, 4));
}

TEST(ExactSolverTest, RejectsOutOfRangeN) {
  EXPECT_THROW(ExactSolver(1), AssertionError);
  EXPECT_THROW(ExactSolver(17), AssertionError);
}

TEST(ExactSolverTest, ExhaustiveQueriesRejectInfeasiblePool) {
  // n = 9 is constructible (row-array encoding), but the exhaustive
  // queries need the full 9^8 = 43M move pool — only witnessPlay works.
  ExactSolver solver(9);
  EXPECT_THROW((void)solver.solve(), AssertionError);
  EXPECT_THROW((void)solver.optimalPlay(), AssertionError);
}

TEST(ExactSolverTest, N2IsOneRound) {
  // Both trees on 2 nodes broadcast immediately: t*(T_2) = 1, which also
  // equals the paper's lower bound ⌈(3·2−1)/2⌉−2 = 1.
  ExactSolver solver(2);
  const ExactResult r = solver.solve();
  EXPECT_EQ(r.tStar, 1u);
  EXPECT_EQ(r.tStar, bounds::lowerBound(2));
}

TEST(ExactSolverTest, CanonicalizationPreservesValue) {
  for (const std::size_t n : {2u, 3u, 4u}) {
    ExactSolver with(n, {.canonicalize = true});
    ExactSolver without(n, {.canonicalize = false});
    const ExactResult a = with.solve();
    const ExactResult b = without.solve();
    EXPECT_EQ(a.tStar, b.tStar) << "n=" << n;
    EXPECT_LE(a.statesMemoized, b.statesMemoized) << "n=" << n;
  }
}

class ExactBoundsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExactBoundsTest, ValueRespectsTheorem31) {
  const std::size_t n = GetParam();
  ExactSolver solver(n);
  const ExactResult r = solver.solve();
  // The exact game value must sit inside the theorem's bracket.
  EXPECT_GE(r.tStar, bounds::lowerBound(n)) << "n=" << n;
  EXPECT_LE(r.tStar, bounds::linearUpper(n)) << "n=" << n;
  // And strictly above the static-path baseline for n ≥ 3 (the adversary
  // can always do at least as well as any single tree).
  EXPECT_GE(r.tStar, n - 1) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(SmallN, ExactBoundsTest, ::testing::Values(2, 3, 4));

TEST(OptimalPlayTest, SequenceAchievesGameValueOnSimulator) {
  // The extracted optimal line of play is a machine-checkable
  // certificate: replaying it reaches broadcast exactly at t*(T_n).
  for (const std::size_t n : {2u, 3u, 4u, 5u}) {
    ExactSolver solver(n);
    const ExactResult exact = solver.solve();
    const std::vector<RootedTree> play = solver.optimalPlay();
    EXPECT_EQ(play.size(), exact.tStar) << "n=" << n;
    BroadcastSim sim(n);
    for (std::size_t r = 0; r < play.size(); ++r) {
      EXPECT_FALSE(sim.broadcastDone())
          << "broadcast before the sequence ended, n=" << n;
      sim.applyTree(play[r]);
    }
    EXPECT_TRUE(sim.broadcastDone()) << "n=" << n;
  }
}

TEST(OptimalPlayTest, AllMovesAreValidTrees) {
  ExactSolver solver(4);
  for (const RootedTree& t : solver.optimalPlay()) {
    EXPECT_EQ(t.size(), 4u);
    EXPECT_TRUE(isRootedTreeWithSelfLoops(t.toMatrix()));
  }
}

/// Rounds the two-phase construction takes on a fresh simulator.
std::size_t twoPhaseRounds(std::size_t n) {
  TwoPhaseAdversary construction(n);
  const BroadcastRun run = runAdversary(n, construction, defaultRoundCap(n));
  EXPECT_TRUE(run.completed) << "n=" << n;
  return run.rounds;
}

TEST(TwoPhaseExactTest, EqualsTheGameValueWhereSolveIsFeasible) {
  for (const std::size_t n : {2u, 3u, 4u, 5u}) {
    EXPECT_EQ(twoPhaseRounds(n), ExactSolver(n).solve().tStar) << "n=" << n;
  }
}

TEST(WitnessPlayTest, MatchesExactValueWhereSolveIsFeasible) {
  // For n ≤ 5 the exact value is known (= the paper's lower bound): the
  // witness search must find a play of exactly that length, and the
  // play must replay to its own length.
  for (const std::size_t n : {2u, 3u, 4u, 5u}) {
    ExactSolver solver(n);
    const std::vector<RootedTree> play =
        solver.witnessPlay(bounds::lowerBound(n));
    EXPECT_EQ(play.size(), bounds::lowerBound(n)) << "n=" << n;
    BroadcastSim sim(n);
    for (std::size_t r = 0; r < play.size(); ++r) {
      EXPECT_FALSE(sim.broadcastDone()) << "n=" << n << " round=" << r;
      sim.applyTree(play[r]);
    }
    EXPECT_TRUE(sim.broadcastDone()) << "n=" << n;
  }
}

TEST(WitnessPlayTest, CertifiesLowerBoundThroughN7) {
  // Beyond solve()'s practical range: a certified line of play reaching
  // ⌈(3n−1)/2⌉−2 rounds (the [14] lower bound) via the complete pool,
  // as long as the two-phase construction's.
  for (const std::size_t n : {6u, 7u}) {
    const std::vector<RootedTree> play =
        ExactSolver(n).witnessPlay(bounds::lowerBound(n));
    EXPECT_EQ(play.size(), bounds::lowerBound(n)) << "n=" << n;
    EXPECT_EQ(play.size(), twoPhaseRounds(n)) << "n=" << n;
  }
}

TEST(WitnessPlayTest, CertifiesLowerBoundAtN8) {
  const std::vector<RootedTree> play =
      ExactSolver(8).witnessPlay(bounds::lowerBound(8));
  EXPECT_EQ(play.size(), bounds::lowerBound(8));  // = 10
  EXPECT_EQ(play.size(), twoPhaseRounds(8));
}

TEST(WitnessPlayTest, ConstructionPrefixBeyondTheCompletePool) {
  // n > 8: the first min(t, L) − 1 construction trees plus the star
  // finisher, so the play is exactly min(t, L) rounds long and first
  // broadcasts in its last round.
  for (std::size_t n = 9; n <= ExactSolver::kMaxN; ++n) {
    const std::size_t lower = bounds::lowerBound(n);
    for (std::size_t t = 1; t <= lower + 2; ++t) {
      const std::vector<RootedTree> play = ExactSolver(n).witnessPlay(t);
      ASSERT_EQ(play.size(), std::min(t, lower)) << "n=" << n << " t=" << t;
      BroadcastSim sim(n);
      for (const RootedTree& tree : play) {
        EXPECT_FALSE(sim.broadcastDone()) << "n=" << n << " t=" << t;
        sim.applyTree(tree);
      }
      EXPECT_TRUE(sim.broadcastDone()) << "n=" << n << " t=" << t;
    }
  }
}

TEST(WitnessPlayTest, CertifiesLowerBoundAtN9) {
  // Past the exhaustive-pool ceiling: the two-phase construction
  // certifies t*(T_9) >= ⌈26/2⌉−2 = 11.
  const std::vector<RootedTree> play =
      ExactSolver(9).witnessPlay(bounds::lowerBound(9));
  EXPECT_EQ(play.size(), bounds::lowerBound(9));  // = 11
  BroadcastSim sim(9);
  std::size_t completedAt = 0;
  for (std::size_t r = 0; r < play.size(); ++r) {
    sim.applyTree(play[r]);
    if (sim.broadcastDone() && completedAt == 0) completedAt = r + 1;
  }
  EXPECT_EQ(completedAt, play.size());
}

TEST(WitnessPlayTest, ExhaustedBudgetStillReturnsAValidShorterPlay) {
  // A starved search degrades to the longest line it certified — down to
  // the always-available single finishing move — never to an invalid
  // sequence.
  // n = 6 is within the complete pool, where the budget applies.
  ExactWitnessOptions opts;
  opts.nodeBudget = 0;
  const std::vector<RootedTree> play =
      ExactSolver(6).witnessPlay(bounds::lowerBound(6), opts);
  ASSERT_EQ(play.size(), 1u);
  BroadcastSim sim(6);
  sim.applyTree(play[0]);
  EXPECT_TRUE(sim.broadcastDone());
}

TEST(WitnessPlayTest, ZeroTargetIsEmpty) {
  EXPECT_TRUE(ExactSolver(5).witnessPlay(0).empty());
}

TEST(ExactSolverTest, DepthCapViolationThrows) {
  // A depth cap of 1 is impossible for n = 3 (t* > 1), so the safety net
  // must fire rather than return a wrong value.
  ExactSolver solver(3, {.canonicalize = true, .depthCap = 1});
  EXPECT_THROW((void)solver.solve(), AssertionError);
}

}  // namespace
}  // namespace dynbcast
