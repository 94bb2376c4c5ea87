// The SimBackend concept (sim_backend.h) is the compile-time contract
// both round-by-round engines satisfy. The static_asserts are the actual
// test — a drifting signature breaks the build right here, with the
// concept name in the error. The runtime probe then drives BroadcastSim
// and ProcessSim through one shared round sequence and checks they agree
// on every observable the concept exposes, which is the semantic half of
// the contract ("both backends are EXACT"). The runUntil suite checks the
// shared round driver against a hand-written round loop.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/graph/bitmatrix.h"
#include "src/sim/broadcast_sim.h"
#include "tests/oracles/process_sim.h"
#include "src/sim/sim_backend.h"
#include "src/support/rng.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"
#include "src/tree/rooted_tree.h"

namespace dynbcast {

static_assert(SimBackend<BroadcastSim>,
              "BroadcastSim must satisfy the SimBackend concept");
static_assert(SimBackend<ProcessSim>,
              "ProcessSim must satisfy the SimBackend concept");

namespace {

// Drives one backend through the given rounds via ONLY the concept
// surface and returns the observable trace, so different backend types
// can be compared generically.
struct Trace {
  std::vector<std::size_t> heardCounts;  // per round, sum over y
  std::vector<bool> broadcast;
  std::vector<bool> gossip;

  bool operator==(const Trace&) const = default;
};

template <SimBackend S>
Trace run(S& sim, const std::vector<RootedTree>& trees, const BitMatrix& g) {
  Trace trace;
  const auto record = [&trace, &sim] {
    std::size_t total = 0;
    for (std::size_t y = 0; y < sim.processCount(); ++y) {
      total += sim.heardCount(y);
    }
    trace.heardCounts.push_back(total);
    trace.broadcast.push_back(sim.broadcastDone());
    trace.gossip.push_back(sim.gossipDone());
  };
  for (const RootedTree& tree : trees) {
    sim.applyTree(tree);
    record();
  }
  sim.applyGraph(g);
  record();
  // reset() must land back on the round-0 identity state.
  sim.reset();
  EXPECT_EQ(sim.round(), 0u);
  record();
  return trace;
}

TEST(SimBackendTest, AllBackendsAgreeOnTheConceptSurface) {
  for (const std::size_t n : {2ul, 9ul, 40ul}) {
    Rng rng(500 + n);
    std::vector<RootedTree> trees;
    for (int r = 0; r < 4; ++r) trees.push_back(randomRootedTree(n, rng));
    BitMatrix g = BitMatrix::identity(n);
    for (int e = 0; e < 3 * static_cast<int>(n); ++e) {
      g.set(rng.uniform(n), rng.uniform(n));
    }

    BroadcastSim dense(n);
    ProcessSim process(n);
    const Trace reference = run(dense, trees, g);
    EXPECT_EQ(run(process, trees, g), reference) << "ProcessSim, n=" << n;
  }
}

// --- the runUntil driver ------------------------------------------------

constexpr Objective kObjectives[] = {Objective::kBroadcast, Objective::kGossip};

TEST(RunUntilTest, MatchesTheDenseRunOnSeededTrees) {
  // runUntil against the loop it replaces: apply the seeded trees one
  // round at a time, recording metrics, until the objective holds.
  for (const Objective objective : kObjectives) {
    for (const std::size_t n : {2ul, 5ul, 16ul, 33ul}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const std::size_t cap = 50 * n;
        BroadcastSim sim(n);
        Rng rng(seed);
        const BroadcastRun run = runUntil(
            sim, objective, cap, /*recordHistory=*/true,
            [&rng, n](BroadcastSim& s) {
              s.applyTree(randomRootedTree(n, rng));
            });

        BroadcastSim dense(n);
        Rng denseRng(seed);
        std::vector<RoundMetrics> history;
        const auto done = [&dense, objective] {
          return objective == Objective::kBroadcast ? dense.broadcastDone()
                                                    : dense.gossipDone();
        };
        while (!done() && dense.round() < cap) {
          dense.applyTree(randomRootedTree(n, denseRng));
          history.push_back(dense.metrics());
        }
        EXPECT_TRUE(run.completed) << "n=" << n << " seed=" << seed;
        EXPECT_EQ(run.rounds, dense.round()) << "n=" << n << " seed=" << seed;
        EXPECT_EQ(run.completed, done());
        EXPECT_EQ(run.history.size(), run.rounds);
        EXPECT_TRUE(run.history == history) << "n=" << n << " seed=" << seed;
      }
    }
  }
}

TEST(RunUntilTest, SingleProcessCompletesAtRoundZero) {
  for (const Objective objective : kObjectives) {
    BroadcastSim sim(1);
    const BroadcastRun run =
        runUntil(sim, objective, 10, true, [](BroadcastSim&) {
          ADD_FAILURE() << "no round may run once the objective holds";
        });
    EXPECT_TRUE(run.completed);
    EXPECT_EQ(run.rounds, 0u);
    EXPECT_TRUE(run.history.empty());
  }
}

TEST(RunUntilTest, ZeroCapRunsNoRound) {
  BroadcastSim sim(5);
  const BroadcastRun run = runUntil(
      sim, Objective::kBroadcast, 0, true,
      [](BroadcastSim& s) { s.applyTree(makePath(5)); });
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.rounds, 0u);
  EXPECT_TRUE(run.history.empty());
}

TEST(RunUntilTest, StaticPathStallsGossipAtTheCap) {
  // A leaf's id never leaves it under a static tree, so gossip stalls.
  constexpr std::size_t kCap = 20;
  BroadcastSim sim(6);
  const BroadcastRun run = runUntil(
      sim, Objective::kGossip, kCap, true,
      [](BroadcastSim& s) { s.applyTree(makePath(6)); });
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.rounds, kCap);
  EXPECT_EQ(run.history.size(), kCap);
}

}  // namespace
}  // namespace dynbcast
