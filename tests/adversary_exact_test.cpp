#include "src/adversary/exact_solver.h"

#include <gtest/gtest.h>

#include "src/adversary/oblivious.h"
#include "src/bounds/bounds.h"
#include "src/graph/properties.h"
#include "src/sim/broadcast_sim.h"
#include "tests/oracles/process_sim.h"
#include "src/support/assert.h"

namespace dynbcast {
namespace {

TEST(ExactSolverTest, RejectsOutOfRangeN) {
  EXPECT_THROW(ExactSolver(1), AssertionError);
  EXPECT_NO_THROW(ExactSolver(ExactSolver::kMaxN));
}

TEST(ExactSolverTest, ExhaustiveQueriesRejectInfeasiblePool) {
  // n = 9 would need the full 9^8 = 43M move pool and 9-bit rows, so
  // the constructor refuses it before solve() or optimalPlay() can run.
  EXPECT_THROW(ExactSolver(ExactSolver::kMaxN + 1), AssertionError);
  EXPECT_THROW(ExactSolver(9), AssertionError);
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
  // The game values and canonical memo sizes are pinned too, so a change
  // to the state encoding or the canonical form cannot move them.
  const std::size_t pinnedTStar[] = {1, 2, 4, 5};
  const std::uint64_t pinnedStates[] = {1, 2, 19, 817};
  for (const std::size_t n : {2u, 3u, 4u, 5u}) {
    ExactSolver solver(n);
    const ExactResult exact = solver.solve();
    EXPECT_EQ(exact.tStar, pinnedTStar[n - 2]) << "n=" << n;
    EXPECT_EQ(exact.statesMemoized, pinnedStates[n - 2]) << "n=" << n;
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

TEST(TwoPhaseExactTest, ReplaysOnTheProcessSimulator) {
  // The construction is the repo's lower-bound witness, so certify it on
  // the executable-spec simulator too: message passing first broadcasts
  // in round ⌈(3n−1)/2⌉−2, and every process knows exactly as many ids
  // as its heard-of row holds in BroadcastSim after every round.
  for (std::size_t n = 2; n <= 64; ++n) {
    TwoPhaseAdversary construction(n);
    ProcessSim processes(n);
    BroadcastSim sim(n);
    const std::size_t lower = bounds::lowerBound(n);
    for (std::size_t r = 1; r <= lower; ++r) {
      ASSERT_FALSE(processes.broadcastDone()) << "n=" << n << " round=" << r;
      const RootedTree tree = construction.next();
      processes.applyTree(tree);
      sim.applyTree(tree);
      for (std::size_t y = 0; y < n; ++y) {
        ASSERT_EQ(processes.heardCount(y), sim.heardCount(y))
            << "n=" << n << " round=" << r << " y=" << y;
      }
    }
    EXPECT_TRUE(processes.broadcastDone()) << "n=" << n;
  }
}

TEST(ExactSolverTest, DepthCapViolationThrows) {
  // A depth cap of 1 is impossible for n = 3 (t* > 1), so the safety net
  // must fire rather than return a wrong value.
  ExactSolver solver(3, {.canonicalize = true, .depthCap = 1});
  EXPECT_THROW((void)solver.solve(), AssertionError);
}

}  // namespace
}  // namespace dynbcast
