#include "src/sim/broadcast_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/graph/properties.h"
#include "src/sim/sim_backend.h"
#include "src/support/assert.h"
#include "src/support/rng.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {
namespace {

TEST(BroadcastSimTest, InitialStateIsIdentity) {
  BroadcastSim sim(4);
  EXPECT_EQ(sim.round(), 0u);
  for (std::size_t y = 0; y < 4; ++y) {
    EXPECT_EQ(sim.heardBy(y).count(), 1u);
    EXPECT_TRUE(sim.heardBy(y).test(y));
  }
  EXPECT_FALSE(sim.broadcastDone());
  EXPECT_FALSE(sim.gossipDone());
}

TEST(BroadcastSimTest, SingleProcessIsInstantlyDone) {
  BroadcastSim sim(1);
  EXPECT_TRUE(sim.broadcastDone());
  EXPECT_TRUE(sim.gossipDone());
}

TEST(BroadcastSimTest, OneStarRoundBroadcasts) {
  BroadcastSim sim(6);
  sim.applyTree(makeStar(6, 2));
  EXPECT_TRUE(sim.broadcastDone());
  const DynBitset bc = sim.broadcasters();
  EXPECT_EQ(bc.count(), 1u);
  EXPECT_TRUE(bc.test(2));
}

TEST(BroadcastSimTest, StaticPathTakesNMinus1Rounds) {
  // Paper §2: repeating a path gives broadcast time exactly n−1.
  for (const std::size_t n : {2u, 3u, 5u, 17u, 50u}) {
    BroadcastSim sim(n);
    const RootedTree path = makePath(n);
    while (!sim.broadcastDone()) {
      ASSERT_LE(sim.round(), n) << "static path exceeded n rounds";
      sim.applyTree(path);
    }
    EXPECT_EQ(sim.round(), n - 1) << "n=" << n;
  }
}

TEST(BroadcastSimTest, StaticTreeTakesHeightRounds) {
  Rng rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.uniform(20);
    const RootedTree tree = randomRootedTree(n, rng);
    BroadcastSim sim(n);
    while (!sim.broadcastDone()) {
      ASSERT_LE(sim.round(), n);
      sim.applyTree(tree);
    }
    EXPECT_EQ(sim.round(), tree.height()) << tree.toString();
  }
}

TEST(BroadcastSimTest, HeardSetsAreMonotone) {
  Rng rng(3);
  BroadcastSim sim(12);
  std::vector<DynBitset> prev;
  for (std::size_t y = 0; y < 12; ++y) prev.push_back(sim.heardBy(y));
  for (int r = 0; r < 30; ++r) {
    sim.applyTree(randomRootedTree(12, rng));
    for (std::size_t y = 0; y < 12; ++y) {
      EXPECT_TRUE(sim.heardBy(y).isSupersetOf(prev[y]));
      prev[y] = sim.heardBy(y);
    }
  }
}

TEST(BroadcastSimTest, AtLeastOneNewEdgePerRoundUntilGossip) {
  // §2's trivial-progress argument: the product gains ≥ 1 edge per round
  // as long as some heard set is incomplete.
  Rng rng(7);
  BroadcastSim sim(9);
  std::size_t prevEdges = sim.metrics().totalEdges;
  while (!sim.gossipDone()) {
    sim.applyTree(randomRootedTree(9, rng));
    const std::size_t edges = sim.metrics().totalEdges;
    EXPECT_GT(edges, prevEdges);
    prevEdges = edges;
    ASSERT_LT(sim.round(), 200u);
  }
}

TEST(BroadcastSimTest, ReachMatrixIsTransposeOfHeard) {
  Rng rng(19);
  BroadcastSim sim(8);
  for (int r = 0; r < 5; ++r) sim.applyTree(randomRootedTree(8, rng));
  const BitMatrix reach = sim.reachMatrix();
  for (std::size_t x = 0; x < 8; ++x) {
    for (std::size_t y = 0; y < 8; ++y) {
      EXPECT_EQ(reach.get(x, y), sim.heardBy(y).test(x));
    }
  }
}

TEST(BroadcastSimTest, ReachMatrixEqualsExplicitProduct) {
  // The simulator must compute exactly G(t) = G_1 ∘ … ∘ G_t (Def. 2.1).
  Rng rng(23);
  const std::size_t n = 7;
  BroadcastSim sim(n);
  BitMatrix product = BitMatrix::identity(n);
  for (int r = 0; r < 12; ++r) {
    const RootedTree t = randomRootedTree(n, rng);
    sim.applyTree(t);
    product = product.product(t.toMatrix());
    EXPECT_EQ(sim.reachMatrix(), product) << "round " << r + 1;
  }
}

TEST(BroadcastSimTest, ApplyGraphMatchesApplyTree) {
  Rng rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.uniform(10);
    const RootedTree t = randomRootedTree(n, rng);
    BroadcastSim a(n), b(n);
    a.applyTree(t);
    b.applyGraph(t.toMatrix());
    for (std::size_t y = 0; y < n; ++y) {
      EXPECT_EQ(a.heardBy(y), b.heardBy(y));
    }
  }
}

TEST(BroadcastSimTest, ApplyGraphRejectsMissingSelfLoops) {
  BroadcastSim sim(3);
  BitMatrix g(3);  // no self-loops
  g.set(0, 1);
  EXPECT_THROW(sim.applyGraph(g), AssertionError);
}

TEST(BroadcastSimTest, ResetRestoresIdentity) {
  Rng rng(31);
  BroadcastSim sim(6);
  sim.applyTree(randomRootedTree(6, rng));
  sim.reset();
  EXPECT_EQ(sim.round(), 0u);
  for (std::size_t y = 0; y < 6; ++y) {
    EXPECT_EQ(sim.heardBy(y).count(), 1u);
  }
}

TEST(BroadcastSimTest, SizeMismatchThrows) {
  BroadcastSim sim(5);
  EXPECT_THROW(sim.applyTree(makePath(4)), AssertionError);
}

TEST(RunnersTest, RunBroadcastCompletesOnRandomTrees) {
  Rng rng(41);
  BroadcastSim sim(10);
  const BroadcastRun run = runUntil(
      sim, Objective::kBroadcast, 1000, false,
      [&rng](BroadcastSim& s) { s.applyTree(randomRootedTree(10, rng)); });
  EXPECT_TRUE(run.completed);
  EXPECT_GT(run.rounds, 0u);
}

TEST(RunnersTest, RunBroadcastHonorsCap) {
  // An adversary that starves one branch: identity path forever takes
  // exactly n−1, so a cap of 3 must report incomplete for n = 10.
  BroadcastSim sim(10);
  const BroadcastRun run =
      runUntil(sim, Objective::kBroadcast, 3, false,
               [](BroadcastSim& s) { s.applyTree(makePath(10)); });
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.rounds, 3u);
}

TEST(RunnersTest, HistoryRecordedWhenRequested) {
  BroadcastSim sim(5);
  const BroadcastRun run =
      runUntil(sim, Objective::kBroadcast, 100, true,
               [](BroadcastSim& s) { s.applyTree(makePath(5)); });
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.history.size(), run.rounds);
  // Metrics rounds are 1-based and increasing.
  for (std::size_t i = 0; i < run.history.size(); ++i) {
    EXPECT_EQ(run.history[i].round, i + 1);
  }
}

TEST(RunnersTest, GossipTakesAtLeastBroadcast) {
  Rng rng(43);
  for (int trial = 0; trial < 5; ++trial) {
    Rng r1 = rng.split();
    Rng r2 = r1;  // identical tree sequences for both runs
    const std::size_t n = 4 + rng.uniform(8);
    BroadcastSim bsim(n);
    const BroadcastRun b = runUntil(
        bsim, Objective::kBroadcast, 5000, false,
        [&r1, n](BroadcastSim& s) { s.applyTree(randomRootedTree(n, r1)); });
    BroadcastSim gsim(n);
    const BroadcastRun g = runUntil(
        gsim, Objective::kGossip, 5000, false,
        [&r2, n](BroadcastSim& s) { s.applyTree(randomRootedTree(n, r2)); });
    ASSERT_TRUE(b.completed);
    ASSERT_TRUE(g.completed);
    EXPECT_GE(g.rounds, b.rounds);
  }
}

class StaticPathSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StaticPathSweep, ExactlyNMinus1) {
  const std::size_t n = GetParam();
  BroadcastSim sim(n);
  const BroadcastRun run =
      runUntil(sim, Objective::kBroadcast, n + 2, false,
               [n](BroadcastSim& s) { s.applyTree(makePath(n)); });
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.rounds, n - 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StaticPathSweep,
                         ::testing::Values(2, 3, 4, 8, 16, 33, 64, 128, 257));

// --- incremental completion state ------------------------------------
//
// The simulator maintains ⋂_y Heard(y), per-row popcounts, and the
// full-row counter incrementally (see broadcast_sim.h). These checks
// recompute all three from the raw matrix after EVERY round of a random
// adversary trace and demand exact agreement — including at sizes with a
// partial tail word.

void expectCompletionStateConsistent(const BroadcastSim& sim) {
  const std::size_t n = sim.processCount();
  DynBitset common(n);
  common.setAll();
  std::size_t fullRows = 0;
  for (std::size_t y = 0; y < n; ++y) {
    const DynBitset& row = sim.heardBy(y);
    EXPECT_EQ(sim.heardCount(y), row.count()) << "row " << y;
    if (row.all()) ++fullRows;
    common.andWith(row);
  }
  EXPECT_EQ(sim.broadcasters(), common);
  EXPECT_EQ(sim.broadcastDone(), common.any());
  EXPECT_EQ(sim.gossipDone(), fullRows == n);
}

TEST(BroadcastSimIncrementalTest, MatchesRecomputeOnRandomTrace) {
  Rng rng(2024);
  for (const std::size_t n : {2u, 5u, 63u, 65u, 96u}) {
    BroadcastSim sim(n);
    expectCompletionStateConsistent(sim);
    // Run well past broadcast completion toward gossip so the full-row
    // counter is exercised through its whole range.
    for (std::size_t r = 0; r < 4 * n && !sim.gossipDone(); ++r) {
      sim.applyTree(randomRootedTree(n, rng));
      expectCompletionStateConsistent(sim);
    }
    sim.reset();
    expectCompletionStateConsistent(sim);
  }
}

TEST(BroadcastSimIncrementalTest, MatchesRecomputeOnGraphRounds) {
  // applyGraph rebuilds the completion state wholesale; verify it against
  // the same recompute.
  Rng rng(7);
  const std::size_t n = 33;
  BroadcastSim sim(n);
  for (int r = 0; r < 12; ++r) {
    BitMatrix g = BitMatrix::identity(n);
    for (int e = 0; e < 40; ++e) {
      g.set(rng.uniform(n), rng.uniform(n));
    }
    sim.applyGraph(g);
    expectCompletionStateConsistent(sim);
  }
}

// applyGraph applies a source with at most kSparseSourceBits heard bits
// bit by bit and a denser one by a whole-row OR. Both paths are checked
// against the round's definition, Heard'(y) = ⋃ Heard(x) over the
// in-arcs (x, y), over several rounds at sizes around the word
// boundaries. The first round reaches rows of exactly the crossover
// count, one more, and full rows, so the next round mixes both paths.

std::vector<DynBitset> referenceGraphRound(const std::vector<DynBitset>& heard,
                                           const BitMatrix& g) {
  const std::size_t n = heard.size();
  std::vector<DynBitset> next(n, DynBitset(n));
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      if (!g.get(x, y)) continue;
      for (std::size_t b = 0; b < n; ++b) {
        if (heard[x].test(b)) next[y].set(b);
      }
    }
  }
  return next;
}

// From the identity, row y ends the round holding y plus its in-arcs:
// in-degree k - 1 besides the self-loop leaves exactly k bits.
BitMatrix graphWithRowCounts(const std::vector<std::size_t>& counts,
                             Rng& rng) {
  const std::size_t n = counts.size();
  BitMatrix g = BitMatrix::identity(n);
  for (std::size_t y = 0; y < n; ++y) {
    std::size_t inDegree = 1;
    while (inDegree < std::min(counts[y], n)) {
      const std::size_t x = rng.uniform(n);
      if (!g.get(x, y)) {
        g.set(x, y);
        ++inDegree;
      }
    }
  }
  return g;
}

TEST(BroadcastSimTest, ApplyGraphMatchesReferenceOnBothPaths) {
  const std::size_t k = BroadcastSim::kSparseSourceBits;
  Rng rng(41);
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 130u, 257u}) {
    for (int trial = 0; trial < 3; ++trial) {
      BroadcastSim sim(n);
      std::vector<DynBitset> ref(n, DynBitset(n));
      for (std::size_t y = 0; y < n; ++y) ref[y].set(y);
      // Trial 0 starts from plain random rounds (all sources singletons
      // in round 1); the others shape the rows first.
      std::vector<std::size_t> counts(n);
      for (std::size_t y = 0; y < n; ++y) {
        const std::size_t pick = (y + static_cast<std::size_t>(trial)) % 4;
        counts[y] = pick == 0 ? k : pick == 1 ? k + 1 : pick == 2 ? n : 1;
      }
      for (int r = 0; r < 6; ++r) {
        BitMatrix g = BitMatrix::identity(n);
        if (r == 0 && trial > 0) {
          g = graphWithRowCounts(counts, rng);
        } else {
          const std::size_t arcs = rng.uniform(2 * n + 1);
          for (std::size_t e = 0; e < arcs; ++e) {
            g.set(rng.uniform(n), rng.uniform(n));
          }
        }
        sim.applyGraph(g);
        ref = referenceGraphRound(ref, g);
        for (std::size_t y = 0; y < n; ++y) {
          ASSERT_EQ(sim.heardBy(y), ref[y])
              << "n=" << n << " trial=" << trial << " round=" << r + 1
              << " row=" << y;
        }
        expectCompletionStateConsistent(sim);
        if (r == 0 && trial > 0 && n > k + 1) {
          // The shaped rows feed round 2 with sources on both sides.
          std::size_t atK = 0, aboveK = 0, full = 0;
          for (std::size_t y = 0; y < n; ++y) {
            atK += sim.heardCount(y) == k ? 1 : 0;
            aboveK += sim.heardCount(y) == k + 1 ? 1 : 0;
            full += sim.heardCount(y) == n ? 1 : 0;
          }
          EXPECT_GT(atK, 0u);
          EXPECT_GT(aboveK, 0u);
          EXPECT_GT(full, 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dynbcast
