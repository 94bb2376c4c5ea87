// The SimBackend concept (sim_backend.h) is the compile-time contract
// every simulation engine satisfies. The static_asserts are the actual
// test — a drifting signature breaks the build right here, with the
// concept name in the error. The runtime probe then drives all four
// backends through one shared round sequence and checks they agree on
// every observable the concept exposes, which is the semantic half of
// the contract ("all backends are EXACT"). The runUntil suite checks the
// shared round driver gives the same run on the dense and sparse backends.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "src/graph/bitmatrix.h"
#include "src/sim/batch_sim.h"
#include "src/sim/broadcast_sim.h"
#include "src/sim/frontier_sim.h"
#include "src/sim/process_sim.h"
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
static_assert(SimBackend<FrontierSim>,
              "FrontierSim must satisfy the SimBackend concept");
static_assert(SimBackend<BatchBroadcastSim>,
              "BatchBroadcastSim (width-1 surface) must satisfy SimBackend");

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
    FrontierSim frontier(n);
    BatchBroadcastSim batch(n, 1);
    const Trace reference = run(dense, trees, g);
    EXPECT_EQ(run(process, trees, g), reference) << "ProcessSim, n=" << n;
    EXPECT_EQ(run(frontier, trees, g), reference) << "FrontierSim, n=" << n;
    EXPECT_EQ(run(batch, trees, g), reference)
        << "BatchBroadcastSim, n=" << n;
  }
}

// --- the runUntil driver ------------------------------------------------

/// Runs a fresh Sim on the random tree sequence drawn from `seed`.
template <SimBackend Sim>
BroadcastRun runSeededTrees(std::size_t n, Objective objective,
                            std::size_t maxRounds, std::uint64_t seed) {
  Sim sim(n);
  Rng rng(seed);
  return runUntil(sim, objective, maxRounds, /*recordHistory=*/true,
                  [&rng, n](Sim& s) {
                    s.applyTree(randomRootedTree(n, rng));
                  });
}

constexpr Objective kObjectives[] = {Objective::kBroadcast, Objective::kGossip};

template <class Sim>
class RunUntilTest : public ::testing::Test {};

using DrivenBackends = ::testing::Types<BroadcastSim, FrontierSim>;
TYPED_TEST_SUITE(RunUntilTest, DrivenBackends);

TYPED_TEST(RunUntilTest, MatchesTheDenseRunOnSeededTrees) {
  for (const Objective objective : kObjectives) {
    for (const std::size_t n : {2ul, 5ul, 16ul, 33ul}) {
      for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const BroadcastRun run =
            runSeededTrees<TypeParam>(n, objective, 50 * n, seed);
        const BroadcastRun dense =
            runSeededTrees<BroadcastSim>(n, objective, 50 * n, seed);
        EXPECT_TRUE(run.completed) << "n=" << n << " seed=" << seed;
        EXPECT_EQ(run.rounds, dense.rounds) << "n=" << n << " seed=" << seed;
        EXPECT_EQ(run.completed, dense.completed);
        EXPECT_EQ(run.history.size(), run.rounds);
        EXPECT_TRUE(run.history == dense.history)
            << "n=" << n << " seed=" << seed;
      }
    }
  }
}

TYPED_TEST(RunUntilTest, SingleProcessCompletesAtRoundZero) {
  for (const Objective objective : kObjectives) {
    TypeParam sim(1);
    const BroadcastRun run =
        runUntil(sim, objective, 10, true, [](TypeParam&) {
          ADD_FAILURE() << "no round may run once the objective holds";
        });
    EXPECT_TRUE(run.completed);
    EXPECT_EQ(run.rounds, 0u);
    EXPECT_TRUE(run.history.empty());
  }
}

TYPED_TEST(RunUntilTest, ZeroCapRunsNoRound) {
  TypeParam sim(5);
  const BroadcastRun run = runUntil(
      sim, Objective::kBroadcast, 0, true,
      [](TypeParam& s) { s.applyTree(makePath(5)); });
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.rounds, 0u);
  EXPECT_TRUE(run.history.empty());
}

TYPED_TEST(RunUntilTest, StaticPathStallsGossipAtTheCap) {
  // A leaf's id never leaves it under a static tree, so gossip stalls.
  constexpr std::size_t kCap = 20;
  TypeParam sim(6);
  const BroadcastRun run = runUntil(
      sim, Objective::kGossip, kCap, true,
      [](TypeParam& s) { s.applyTree(makePath(6)); });
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.rounds, kCap);
  EXPECT_EQ(run.history.size(), kCap);
}

}  // namespace
}  // namespace dynbcast
