// End-to-end integration: Theorem 3.1 as a testable property of the whole
// stack — generators, simulators, adversaries, and bound formulas.
#include <gtest/gtest.h>

#include <memory>

#include "src/adversary/adaptive.h"
#include "src/adversary/beam.h"
#include "src/adversary/exact_solver.h"
#include "src/adversary/portfolio.h"
#include "src/bounds/bounds.h"
#include "src/bounds/theorem.h"
#include "src/sim/gossip.h"
#include "src/support/rng.h"
#include "src/tree/generators.h"

namespace dynbcast {
namespace {

// ---------------------------------------------------------------------
// Upper bound direction: NO tree sequence may exceed ⌈(1+√2)n − 1⌉.
// We fuzz many independent random adversaries; one counterexample would
// falsify the theorem (or expose a simulator bug).
class UpperBoundFuzzTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(UpperBoundFuzzTest, RandomSequencesRespectUpperBound) {
  const std::size_t n = GetParam();
  Rng rng(n * 1009 + 7);
  for (int trial = 0; trial < 30; ++trial) {
    Rng seq = rng.split();
    BroadcastSim sim(n);
    const BroadcastRun run = runUntil(
        sim, Objective::kBroadcast, defaultRoundCap(n), false,
        [&seq, n](BroadcastSim& s) { s.applyTree(randomRootedTree(n, seq)); });
    ASSERT_TRUE(run.completed) << "hit cap: upper bound violated?";
    const TheoremCheck check = checkTheorem31(n, run.rounds);
    EXPECT_TRUE(check.withinUpper) << check.toString();
  }
}

TEST_P(UpperBoundFuzzTest, AdaptiveAdversariesRespectUpperBound) {
  const std::size_t n = GetParam();
  const PortfolioResult result = runPortfolio(n, n * 31 + 5);
  for (const auto& e : result.entries) {
    ASSERT_TRUE(e.completed) << e.name;
    EXPECT_TRUE(checkTheorem31(n, e.rounds).withinUpper)
        << e.name << " at n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, UpperBoundFuzzTest,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------
// Lower bound direction at small n: the exact game value must sit inside
// the theorem's bracket (this is the strongest statement our machinery
// can certify without the paper's explicit construction).
TEST(LowerBoundExactTest, ExactValuesWithinBracket) {
  for (const std::size_t n : {2u, 3u, 4u}) {
    const ExactResult exact = ExactSolver(n).solve();
    const TheoremCheck check = checkTheorem31(n, exact.tStar);
    EXPECT_TRUE(check.withinUpper) << check.toString();
    EXPECT_TRUE(check.witnessesLower) << check.toString();
  }
}

// Offline beam search at mid n must strictly beat the static baseline —
// the lower-bound *regime* (ratio > 1) beyond any single tree's reach.
TEST(LowerBoundHeuristicTest, BeamWitnessBeatsStaticBaseline) {
  BeamConfig cfg;
  cfg.beamWidth = 128;
  cfg.randomMovesPerState = 6;
  for (const std::size_t n : {12u, 16u, 24u}) {
    const BeamResult witness = beamSearchWitness(n, 11, cfg);
    EXPECT_GT(witness.rounds, n - 1) << "n=" << n;
    EXPECT_EQ(verifyWitness(n, witness.witness), witness.rounds) << "n=" << n;
    EXPECT_LE(witness.rounds, bounds::linearUpper(n)) << "n=" << n;
  }
}

// The online portfolio still realizes at least the static value.
TEST(LowerBoundHeuristicTest, PortfolioAtLeastStaticBaseline) {
  for (const std::size_t n : {16u, 24u}) {
    const PortfolioResult result = runPortfolio(n, 11);
    EXPECT_GE(result.bestRounds, n - 1) << "n=" << n;
  }
}

// ---------------------------------------------------------------------
// Cross-cutting sanity: gossip dominates broadcast under any adversary.
TEST(GossipIntegrationTest, GossipAtLeastBroadcastOnSameSequence) {
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 3 + rng.uniform(12);
    Rng seq = rng.split();
    const GossipComparison cmp = runGossipComparison(
        n,
        [&seq, n](const BroadcastSim&) { return randomRootedTree(n, seq); },
        10000);
    ASSERT_TRUE(cmp.gossipCompleted);
    ASSERT_TRUE(cmp.broadcastCompleted);
    EXPECT_GE(cmp.gossipRounds, cmp.broadcastRounds);
  }
}

// An adaptive delaying adversary stalls gossip FOREVER: the model's
// progress guarantee (≥ 1 new product edge per round) only holds until
// broadcast; afterwards the adversary can reach heard-set configurations
// where some tree adds nothing, and it loops there. Gossip in T_n is
// adversarially unbounded — only broadcast is linear.
TEST(GossipIntegrationTest, AdaptiveAdversaryStallsGossip) {
  const std::size_t n = 8;
  GreedyDelayAdversary adv(n, 5);
  adv.reset();
  const GossipComparison cmp = runGossipComparison(
      n, [&adv](const BroadcastSim& s) { return adv.nextTree(s); }, 300);
  EXPECT_TRUE(cmp.broadcastCompleted);  // broadcast cannot be stopped
  EXPECT_FALSE(cmp.gossipCompleted) << "gossip completed unexpectedly";
}

// The greedy adversary's achieved time is a *certified* lower witness:
// re-running the same seed must reproduce it exactly (determinism is what
// makes the witness auditable).
TEST(CertificationTest, GreedyWitnessReproducible) {
  const std::size_t n = 20;
  GreedyDelayAdversary adv(n, 99);
  const BroadcastRun a = runAdversary(n, adv, defaultRoundCap(n));
  const BroadcastRun b = runAdversary(n, adv, defaultRoundCap(n));
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.rounds, b.rounds);
}

// Every portfolio member terminates within the theorem's upper bound —
// the hierarchy's hard ceiling. (Individual heuristics may fall below
// the static baseline: online play is myopic; see BeamWitnessTest for
// the strict improvement.)
TEST(HierarchyTest, EveryMemberWithinUpperBound) {
  const std::size_t n = 24;
  for (const auto& member : standardPortfolio(n, 17)) {
    const auto adv = member.make();
    const BroadcastRun run = runAdversary(n, *adv, defaultRoundCap(n));
    ASSERT_TRUE(run.completed) << member.name;
    EXPECT_LE(run.rounds, bounds::linearUpper(n)) << member.name;
  }
}

}  // namespace
}  // namespace dynbcast
