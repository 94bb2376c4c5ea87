#include "src/adversary/adaptive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "src/adversary/local_search.h"
#include "src/adversary/lookahead.h"
#include "src/adversary/oblivious.h"
#include "src/bounds/bounds.h"
#include "src/support/assert.h"
#include "src/support/rng.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {
namespace {

TEST(CoverageTest, InitialCoverageIsOne) {
  BroadcastSim sim(6);
  const auto cov = coverageCounts(sim);
  for (const std::size_t c : cov) EXPECT_EQ(c, 1u);
}

TEST(CoverageTest, StarMakesCenterFullCoverage) {
  BroadcastSim sim(6);
  sim.applyTree(makeStar(6, 2));
  const auto cov = coverageCounts(sim);
  EXPECT_EQ(cov[2], 6u);
  for (std::size_t x = 0; x < 6; ++x) {
    if (x != 2) {
      EXPECT_EQ(cov[x], 1u);
    }
  }
}

TEST(CoverageTest, MatchesPerBitCountAtWordBoundaries) {
  // From the first rounds to a finished gossip, where every count is n
  // (a power of two at 64, 128 and 256) and fills the top counter bit.
  Rng rng(12);
  for (const std::size_t n :
       {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 256u, 257u}) {
    BroadcastSim sim(n);
    for (std::size_t r = 0; r <= 10 * n; ++r) {
      std::vector<std::size_t> expect(n, 0);
      for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t x = 0; x < n; ++x) expect[x] += sim.heardBy(y).test(x);
      }
      ASSERT_EQ(coverageCounts(sim), expect) << "n=" << n << " round " << r;
      if (sim.gossipDone()) break;
      sim.applyTree(randomRootedTree(n, rng));
    }
    EXPECT_TRUE(sim.gossipDone()) << "n=" << n;
  }
}

TEST(EvaluateCandidateTest, MatchesActualApplication) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + rng.uniform(10);
    BroadcastSim sim(n);
    for (int r = 0; r < 3; ++r) sim.applyTree(randomRootedTree(n, rng));
    const auto covBefore = coverageCounts(sim);
    const std::size_t edgesBefore = sim.metrics().totalEdges;
    const RootedTree candidate = randomRootedTree(n, rng);
    EvalScratch scratch;
    const DelayScore score =
        evaluateCandidate(sim.heardMatrix(), covBefore, candidate, scratch);
    // Now actually apply and compare.
    sim.applyTree(candidate);
    const auto covAfter = coverageCounts(sim);
    const std::size_t maxCov =
        *std::max_element(covAfter.begin(), covAfter.end());
    EXPECT_EQ(score.maxCoverage, maxCov);
    EXPECT_EQ(score.finishes, sim.broadcastDone());
    EXPECT_EQ(score.newEdges, sim.metrics().totalEdges - edgesBefore);
  }
}

std::vector<std::size_t> identityBase(std::size_t n) {
  std::vector<std::size_t> base(n);
  for (std::size_t i = 0; i < n; ++i) base[i] = i;
  return base;
}

TEST(FreezeOrderingTest, NonKnowersPrecedeKnowers) {
  Rng rng(21);
  BroadcastSim sim(10);
  for (int r = 0; r < 4; ++r) sim.applyTree(randomPath(10, rng));
  const auto cov = coverageCounts(sim);
  const std::size_t leader = static_cast<std::size_t>(
      std::max_element(cov.begin(), cov.end()) - cov.begin());
  const auto order =
      freezeOrdering(sim.heardMatrix(), {leader}, identityBase(10));
  bool seenKnower = false;
  for (const std::size_t y : order) {
    const bool knows = sim.heardBy(y).test(leader);
    if (knows) seenKnower = true;
    if (seenKnower) {
      EXPECT_TRUE(knows) << "non-knower after knower block";
    }
  }
}

TEST(FreezeOrderingTest, StablePartitionPreservesRelativeOrder) {
  Rng rng(22);
  BroadcastSim sim(12);
  for (int r = 0; r < 3; ++r) sim.applyTree(randomPath(12, rng));
  const auto cov = coverageCounts(sim);
  const std::size_t leader = static_cast<std::size_t>(
      std::max_element(cov.begin(), cov.end()) - cov.begin());
  const auto base = identityBase(12);
  const auto order = freezeOrdering(sim.heardMatrix(), {leader}, base);
  // Within the non-knower block and within the knower block, ids must
  // stay in base (ascending) order — that is the stability guarantee.
  std::vector<std::size_t> nonKnowers, knowers;
  for (const std::size_t y : order) {
    (sim.heardBy(y).test(leader) ? knowers : nonKnowers).push_back(y);
  }
  EXPECT_TRUE(std::is_sorted(nonKnowers.begin(), nonKnowers.end()));
  EXPECT_TRUE(std::is_sorted(knowers.begin(), knowers.end()));
}

TEST(FreezeOrderingTest, FreezePathFreezesLeaderCoverage) {
  // The defining property: after one freeze-path round, the leader's
  // coverage must not have grown.
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 4 + rng.uniform(12);
    BroadcastSim sim(n);
    for (int r = 0; r < 3; ++r) sim.applyTree(randomRootedTree(n, rng));
    if (sim.broadcastDone()) continue;
    auto cov = coverageCounts(sim);
    const std::size_t leader = static_cast<std::size_t>(
        std::max_element(cov.begin(), cov.end()) - cov.begin());
    const std::size_t before = cov[leader];
    FreezePathAdversary adv(n, 1);
    sim.applyTree(adv.nextTree(sim));
    EXPECT_EQ(coverageCounts(sim)[leader], before);
  }
}

TEST(AdaptiveAdversaryTest, FreezeCompletesWithinTheorem) {
  // Online freeze play is myopic (see adaptive.h header notes): it is not
  // guaranteed to beat the static baseline, but it must stay within the
  // theorem's upper bound and terminate.
  for (const std::size_t n : {8u, 16u, 32u}) {
    FreezePathAdversary adv(n, 2);
    const BroadcastRun run = runAdversary(n, adv, defaultRoundCap(n));
    ASSERT_TRUE(run.completed) << "freeze adversary hit the round cap";
    EXPECT_LE(run.rounds, bounds::linearUpper(n)) << "n=" << n;
  }
}

TEST(AdaptiveAdversaryTest, GreedyDelayAtLeastStaticPath) {
  // GreedyDelay's candidate pool contains its own previous path, so with
  // the identity initialization it can always realize the static-path
  // value n−1; one-step lookahead cannot be forced below it.
  for (const std::size_t n : {8u, 16u, 32u}) {
    GreedyDelayAdversary adv(n, 7);
    const BroadcastRun run = runAdversary(n, adv, defaultRoundCap(n));
    ASSERT_TRUE(run.completed);
    EXPECT_GE(run.rounds, n - 1) << "n=" << n;
    EXPECT_LE(run.rounds, bounds::linearUpper(n)) << "n=" << n;
  }
}

TEST(AdaptiveAdversaryTest, HeardOrderPathsComplete) {
  for (const bool asc : {true, false}) {
    HeardOrderPathAdversary adv(12, asc);
    const BroadcastRun run = runAdversary(12, adv, defaultRoundCap(12));
    EXPECT_TRUE(run.completed);
    EXPECT_LE(run.rounds, bounds::linearUpper(12));
  }
}

TEST(LocalSearchTest, CompletesWithinBound) {
  const std::size_t n = 16;
  LocalSearchPathAdversary adv(n, 13);
  const BroadcastRun run = runAdversary(n, adv, defaultRoundCap(n));
  ASSERT_TRUE(run.completed);
  EXPECT_LE(run.rounds, bounds::linearUpper(n));
}

TEST(LocalSearchTest, DeterministicPerSeed) {
  LocalSearchPathAdversary adv(10, 21);
  const BroadcastRun a = runAdversary(10, adv, defaultRoundCap(10));
  const BroadcastRun b = runAdversary(10, adv, defaultRoundCap(10));
  EXPECT_EQ(a.rounds, b.rounds);
}

// The replay gate promised by src/adversary/lookahead.h's
// replay-test(...) annotation: reset() must rewind the adversary (RNG and
// transposition state included) to a byte-identical run, and two
// instances built from the same (n, seed) must agree round for round.
TEST(LookaheadTest, LookaheadResetReplaysDeterministically) {
  constexpr std::size_t kN = 10;
  constexpr std::uint64_t kSeed = 42;
  LookaheadDelayAdversary adversary(kN, kSeed);
  const BroadcastRun first =
      runAdversary(kN, adversary, defaultRoundCap(kN), true);
  // runAdversary resets first, so a second run on the SAME instance is a
  // replay across reset().
  const BroadcastRun replay =
      runAdversary(kN, adversary, defaultRoundCap(kN), true);
  EXPECT_EQ(first.rounds, replay.rounds);
  EXPECT_EQ(first.completed, replay.completed);
  ASSERT_EQ(first.history.size(), replay.history.size());
  for (std::size_t r = 0; r < first.history.size(); ++r) {
    EXPECT_EQ(first.history[r].totalEdges, replay.history[r].totalEdges)
        << "round " << r;
  }

  LookaheadDelayAdversary rebuilt(kN, kSeed);
  const BroadcastRun fresh =
      runAdversary(kN, rebuilt, defaultRoundCap(kN), true);
  EXPECT_EQ(first.rounds, fresh.rounds);
  ASSERT_EQ(first.history.size(), fresh.history.size());
  for (std::size_t r = 0; r < first.history.size(); ++r) {
    EXPECT_EQ(first.history[r].totalEdges, fresh.history[r].totalEdges)
        << "round " << r;
  }
}

TEST(DelayScoreTest, LexicographicOrdering) {
  DelayScore finishing{true, 0.0, 0, 0};
  DelayScore calm{false, 100.0, 5, 3};
  DelayScore calmer{false, 50.0, 9, 9};
  EXPECT_TRUE(calm < finishing);    // never finish if avoidable
  EXPECT_TRUE(calmer < calm);       // lower potential wins
  DelayScore tiePotential{false, 50.0, 8, 9};
  EXPECT_TRUE(tiePotential < calmer);  // then lower max coverage
}

TEST(DamageGreedyTreeTest, ProducesValidTreeWithRequestedRoot) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + rng.uniform(12);
    BroadcastSim sim(n);
    for (int r = 0; r < 3; ++r) sim.applyTree(randomRootedTree(n, rng));
    const auto cov = coverageCounts(sim);
    const std::size_t root = rng.uniform(n);
    EvalScratch scratch;
    const RootedTree t =
        DamageTrees(sim.heardMatrix(), cov, scratch).greedy(root);
    EXPECT_EQ(t.root(), root);
    EXPECT_EQ(t.size(), n);
  }
}

TEST(DamageGreedyTreeTest, AvoidsFinishingWhenAlternativeExists) {
  // Mid-game, the damage tree should not hand the leader its last
  // missing process if any cheaper attachment exists.
  Rng rng(41);
  BroadcastSim sim(10);
  for (int r = 0; r < 5; ++r) sim.applyTree(randomPath(10, rng));
  if (!sim.broadcastDone()) {
    const auto cov = coverageCounts(sim);
    EvalScratch scratch;
    const RootedTree t = DamageTrees(sim.heardMatrix(), cov, scratch).greedy(0);
    const DelayScore s = evaluateCandidate(sim.heardMatrix(), cov, t, scratch);
    // A path exists that does not finish (the previous path froze);
    // damage-greedy must find SOME non-finishing tree too.
    EXPECT_FALSE(s.finishes);
  }
}

TEST(NoisyDamageTreeTest, NoiseDiversifiesConstruction) {
  Rng rng(51);
  BroadcastSim sim(12);
  for (int r = 0; r < 4; ++r) sim.applyTree(randomRootedTree(12, rng));
  const auto cov = coverageCounts(sim);
  EvalScratch scratch;
  DamageTrees trees(sim.heardMatrix(), cov, scratch);
  std::set<std::string> shapes;
  for (int i = 0; i < 10; ++i) {
    shapes.insert(trees.noisy(0, 8.0, rng).toString());
  }
  EXPECT_GT(shapes.size(), 1u) << "noise produced identical trees";
}

TEST(FreezeBroomTest, StaysInBothRestrictedClasses) {
  const std::size_t n = 12;
  for (const std::size_t handle : {3u, 6u, 9u}) {
    FreezeBroomAdversary adv(n, handle);
    adv.reset();
    BroadcastSim sim(n);
    for (int r = 0; r < 6 && !sim.broadcastDone(); ++r) {
      const RootedTree t = adv.nextTree(sim);
      EXPECT_EQ(t.innerCount(), handle) << "round " << r;
      EXPECT_EQ(t.leafCount(), n - handle) << "round " << r;
      sim.applyTree(t);
    }
  }
}

TEST(FreezeBroomTest, FullHandleDelaysLinearly) {
  // handle n−1 behaves like a freeze path: completes, and takes at least
  // a linear number of rounds (its static height alone is n−2).
  const std::size_t n = 16;
  FreezeBroomAdversary adv(n, n - 1);
  const BroadcastRun run = runAdversary(n, adv, defaultRoundCap(n));
  ASSERT_TRUE(run.completed);
  EXPECT_GE(run.rounds, n / 2);
}

class AdaptiveUpperBoundSweep : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(AdaptiveUpperBoundSweep, NoAdversaryExceedsTheorem31) {
  const std::size_t n = GetParam();
  std::vector<std::unique_ptr<Adversary>> advs;
  advs.push_back(std::make_unique<FreezePathAdversary>(n, 1));
  advs.push_back(std::make_unique<FreezePathAdversary>(n, 3));
  advs.push_back(std::make_unique<GreedyDelayAdversary>(n, 1));
  advs.push_back(std::make_unique<HeardOrderPathAdversary>(n, true));
  advs.push_back(std::make_unique<HeardOrderPathAdversary>(n, false));
  for (auto& adv : advs) {
    const BroadcastRun run = runAdversary(n, *adv, defaultRoundCap(n));
    ASSERT_TRUE(run.completed) << adv->name() << " n=" << n;
    EXPECT_LE(run.rounds, bounds::linearUpper(n))
        << adv->name() << " violates Theorem 3.1 at n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AdaptiveUpperBoundSweep,
                         ::testing::Values(2, 3, 4, 6, 8, 12, 20, 40, 64));

// --- scratch arena vs reference oracle --------------------------------
//
// evaluateCandidate's word kernels are checked against a test-local
// textbook implementation (fresh heard copy, per-node delta bitsets —
// the allocating shape the arena replaced). They must agree bit-for-bit
// on every field and on the post-move state, at word-boundary sizes too.

/// The obviously-correct reference: apply the tree to a copied matrix in
/// reverse BFS order, as the simulator once did, counting coverage bumps
/// per freshly-learned process. The potential is summed over the final
/// coverage in ascending x, as coveragePotential does, so `potential`
/// must match exactly, not approximately.
DelayScore referenceEvaluateCandidate(const std::vector<DynBitset>& heard,
                                      const std::vector<std::size_t>& coverage,
                                      const RootedTree& tree,
                                      std::vector<DynBitset>* heardOut,
                                      std::vector<std::size_t>* coverageOut) {
  const std::size_t n = heard.size();
  std::vector<std::size_t> cov = coverage;
  DelayScore score;
  std::vector<DynBitset> work = heard;
  const std::vector<std::size_t> order = tree.bfsOrder();
  for (std::size_t i = order.size(); i-- > 0;) {
    const std::size_t y = order[i];
    const std::size_t p = tree.parent(y);
    if (p == y) continue;
    DynBitset delta = work[p];
    delta.subtract(work[y]);
    delta.forEachSet([&cov, &score](std::size_t x) {
      ++cov[x];
      ++score.newEdges;
    });
    work[y].orWith(work[p]);
  }
  for (const std::size_t c : cov) {
    score.maxCoverage = std::max(score.maxCoverage, c);
    if (c == n) score.finishes = true;
    score.potential +=
        std::exp2(static_cast<double>(std::min<std::size_t>(c, 50)));
  }
  if (heardOut != nullptr) *heardOut = std::move(work);
  if (coverageOut != nullptr) *coverageOut = std::move(cov);
  return score;
}

TEST(EvalScratchTest, ArenaAgreesWithReferenceImplementation) {
  Rng rng(31337);
  for (const std::size_t n : {2u, 5u, 63u, 64u, 65u, 90u}) {
    // A mid-game state: a few random rounds from the identity.
    BroadcastSim sim(n);
    for (int r = 0; r < 3; ++r) sim.applyTree(randomRootedTree(n, rng));
    const std::vector<DynBitset>& heard = sim.heardMatrix();
    const std::vector<std::size_t> coverage = coverageCounts(sim);
    EvalScratch scratch = EvalScratch::forProcessCount(n);
    for (int c = 0; c < 10; ++c) {
      const RootedTree tree = randomRootedTree(n, rng);
      std::vector<DynBitset> refHeard;
      std::vector<std::size_t> refCoverage;
      const DelayScore ref = referenceEvaluateCandidate(
          heard, coverage, tree, &refHeard, &refCoverage);
      const DelayScore arena = evaluateCandidate(heard, coverage, tree,
                                                 scratch);
      EXPECT_EQ(arena.finishes, ref.finishes);
      EXPECT_EQ(arena.potential, ref.potential);  // same fp sum order
      EXPECT_EQ(arena.maxCoverage, ref.maxCoverage);
      EXPECT_EQ(arena.newEdges, ref.newEdges);
      EXPECT_EQ(scratch.heard, refHeard);
      EXPECT_EQ(scratch.coverage, refCoverage);
    }
  }
}

TEST(EvalScratchTest, FactoryScratchMatchesDefaultConstructed) {
  // forProcessCount pre-sizes the buffers; results must not depend on
  // whether the scratch arrived pre-sized, freshly default-constructed,
  // or sized for a DIFFERENT n by a previous evaluation.
  Rng rng(777);
  const std::size_t n = 33;
  BroadcastSim sim(n);
  for (int r = 0; r < 3; ++r) sim.applyTree(randomRootedTree(n, rng));
  const std::vector<std::size_t> coverage = coverageCounts(sim);
  const RootedTree tree = randomRootedTree(n, rng);
  EvalScratch sized = EvalScratch::forProcessCount(n);
  EvalScratch fresh;
  EvalScratch wrongSize = EvalScratch::forProcessCount(65);
  const DelayScore a =
      evaluateCandidate(sim.heardMatrix(), coverage, tree, sized);
  const DelayScore b =
      evaluateCandidate(sim.heardMatrix(), coverage, tree, fresh);
  const DelayScore c =
      evaluateCandidate(sim.heardMatrix(), coverage, tree, wrongSize);
  EXPECT_EQ(a.potential, b.potential);
  EXPECT_EQ(a.potential, c.potential);
  EXPECT_EQ(a.newEdges, b.newEdges);
  EXPECT_EQ(a.newEdges, c.newEdges);
  EXPECT_EQ(sized.heard, fresh.heard);
  EXPECT_EQ(sized.heard, wrongSize.heard);
  EXPECT_EQ(sized.coverage, fresh.coverage);
}

// --- path scoring and freeze orders vs their references ---------------

/// A mid-game state: `rounds` random trees applied to the identity state.
BroadcastSim midGameState(std::size_t n, int rounds, Rng& rng) {
  BroadcastSim sim(n);
  for (int r = 0; r < rounds; ++r) sim.applyTree(randomRootedTree(n, rng));
  return sim;
}

TEST(EvaluatePathTest, MatchesEvaluateCandidateOfMakePath) {
  Rng rng(4242);
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 257u}) {
    for (const int rounds : {0, 2, 5}) {
      const BroadcastSim sim = midGameState(n, rounds, rng);
      const std::vector<DynBitset>& heard = sim.heardMatrix();
      const std::vector<std::size_t> coverage = coverageCounts(sim);
      std::vector<std::vector<std::size_t>> orders = {
          identityOrder(n), heardSizeOrder(heard, false),
          freezeOrdering(heard, coverageLeaders(coverage, 2),
                         rng.permutation(n))};
      for (int i = 0; i < 4; ++i) orders.push_back(rng.permutation(n));
      // One scratch carries every earlier evaluation, stale rows included.
      EvalScratch shared = EvalScratch::forProcessCount(n);
      for (const std::vector<std::size_t>& order : orders) {
        EvalScratch treeScratch;
        const DelayScore tree =
            evaluateCandidate(heard, coverage, makePath(order), treeScratch);
        const DelayScore path = evaluatePath(heard, coverage, order, shared);
        EXPECT_EQ(path.finishes, tree.finishes) << "n=" << n;
        EXPECT_EQ(path.potential, tree.potential) << "n=" << n;
        EXPECT_EQ(path.maxCoverage, tree.maxCoverage) << "n=" << n;
        EXPECT_EQ(path.newEdges, tree.newEdges) << "n=" << n;
        EXPECT_EQ(shared.heard, treeScratch.heard) << "n=" << n;
        EXPECT_EQ(shared.coverage, treeScratch.coverage) << "n=" << n;
        // And both equal the simulator's own round.
        BroadcastSim applied = sim;
        applied.applyTree(makePath(order));
        EXPECT_EQ(shared.heard, applied.heardMatrix()) << "n=" << n;
        EXPECT_EQ(shared.coverage, coverageCounts(applied)) << "n=" << n;
      }
    }
  }
}

TEST(EvaluatePathTest, RejectsWhatMakePathRejects) {
  const std::size_t n = 5;
  Rng rng(17);
  const BroadcastSim sim = midGameState(n, 2, rng);
  const std::vector<std::size_t> coverage = coverageCounts(sim);
  EvalScratch scratch = EvalScratch::forProcessCount(n);
  const std::vector<std::vector<std::size_t>> bad = {
      {0, 1, 2, 2, 4},     // duplicate id
      {0, 1, 2, 3, 5},     // id out of range
      {0, 1, 2, 3},        // too short (a permutation of [4])
      {0, 1, 2, 3, 4, 5},  // too long (a permutation of [6])
      {}};
  const std::vector<DynBitset>& heard = sim.heardMatrix();
  for (const std::vector<std::size_t>& order : bad) {
    EXPECT_THROW((void)evaluatePath(heard, coverage, order, scratch),
                 AssertionError);
    EXPECT_THROW(
        (void)evaluateCandidate(heard, coverage, makePath(order), scratch),
        AssertionError);
  }
}

/// The freeze order as first written: one std::stable_sort of the base
/// order by the leaders' knower bits, non-knowers first, x_1 most
/// significant.
std::vector<std::size_t> referenceFreezeOrdering(
    const std::vector<DynBitset>& heard,
    const std::vector<std::size_t>& leaders,
    const std::vector<std::size_t>& baseOrder) {
  std::vector<std::size_t> order = baseOrder;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     for (const std::size_t x : leaders) {
                       const bool ka = heard[a].test(x);
                       const bool kb = heard[b].test(x);
                       if (ka != kb) return !ka;
                     }
                     return false;
                   });
  return order;
}

TEST(FreezeOrderingTest, MatchesStableSortReference) {
  Rng rng(606);
  for (const std::size_t n : {1u, 2u, 7u, 64u, 65u, 130u}) {
    for (const int rounds : {0, 1, 3, 6}) {
      const BroadcastSim sim = midGameState(n, rounds, rng);
      const std::vector<DynBitset>& heard = sim.heardMatrix();
      const std::vector<std::size_t> coverage = coverageCounts(sim);
      for (std::size_t depth = 0; depth <= 6; ++depth) {
        const std::vector<std::size_t> base = rng.permutation(n);
        // The leaders the adversaries pass, and arbitrary ones (repeats
        // allowed) so that every signature pattern is reachable.
        std::vector<std::size_t> arbitrary(depth);
        for (std::size_t& x : arbitrary) x = rng.uniform(n);
        for (const std::vector<std::size_t>& leaders :
             {coverageLeaders(coverage, depth), arbitrary}) {
          EXPECT_EQ(freezeOrdering(heard, leaders, base),
                    referenceFreezeOrdering(heard, leaders, base))
              << "n=" << n << " depth=" << depth;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dynbcast
