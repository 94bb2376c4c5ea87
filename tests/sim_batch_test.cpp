// Batched execution is a pure optimization: every test here pins the
// batched path to the scalar one, bit for bit. Three layers —
//
//   1. BatchBroadcastSim against BroadcastSim: the interleaved SoA
//      recurrence (shared-tree fast path, per-lane strided path,
//      applyGraph, retirement compaction) reproduces the exact heard
//      matrices of independent scalar simulators.
//   2. runObliviousBatch against runAdversary: same rounds, same
//      completed flag per lane, including round-cap stalls.
//   3. runScenario's executor: batch=K produces byte-identical rows to
//      batch=off for widths that divide, straddle, and exceed the
//      replicate count, at jobs=1 and jobs=8.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/adversary/adversary.h"
#include "src/adversary/oblivious.h"
#include "src/engine/scenario.h"
#include "src/graph/bitmatrix.h"
#include "src/sim/batch_sim.h"
#include "src/sim/broadcast_sim.h"
#include "src/support/rng.h"
#include "src/tree/generators.h"
#include "src/tree/rooted_tree.h"

namespace dynbcast {
namespace {

std::vector<DynBitset> scalarHeard(const BroadcastSim& sim) {
  std::vector<DynBitset> rows;
  rows.reserve(sim.processCount());
  for (std::size_t y = 0; y < sim.processCount(); ++y) {
    rows.push_back(sim.heardBy(y));
  }
  return rows;
}

TEST(BatchSimTest, SharedTreeMatchesScalarSimulators) {
  for (const std::size_t n : {2ul, 5ul, 63ul, 64ul, 65ul, 90ul}) {
    Rng rng(1000 + n);
    BatchBroadcastSim batch(n, 4);
    std::vector<BroadcastSim> scalars(4, BroadcastSim(n));
    for (int round = 0; round < 6; ++round) {
      const RootedTree tree = randomRootedTree(n, rng);
      batch.applyTree(tree);
      for (BroadcastSim& s : scalars) s.applyTree(tree);
      for (std::size_t b = 0; b < 4; ++b) {
        EXPECT_EQ(batch.heardMatrix(b), scalarHeard(scalars[b]))
            << "n=" << n << " lane=" << b << " round=" << round;
        EXPECT_EQ(batch.broadcastDone(b), scalars[b].broadcastDone());
        EXPECT_EQ(batch.gossipDone(b), scalars[b].gossipDone());
        for (std::size_t y = 0; y < n; ++y) {
          ASSERT_EQ(batch.heardCount(b, y), scalars[b].heardCount(y));
        }
      }
    }
  }
}

TEST(BatchSimTest, PerLaneTreesMatchScalarSimulators) {
  const std::size_t n = 70;
  Rng rng(42);
  BatchBroadcastSim batch(n, 3);
  std::vector<BroadcastSim> scalars(3, BroadcastSim(n));
  std::vector<RootedTree> owned;
  for (int round = 0; round < 5; ++round) {
    owned.clear();
    for (std::size_t b = 0; b < 3; ++b) {
      owned.push_back(randomRootedTree(n, rng));
    }
    std::vector<const RootedTree*> trees;
    for (const RootedTree& t : owned) trees.push_back(&t);
    batch.applyTrees(trees);
    for (std::size_t b = 0; b < 3; ++b) {
      scalars[b].applyTree(owned[b]);
      EXPECT_EQ(batch.heardMatrix(b), scalarHeard(scalars[b]))
          << "lane=" << b << " round=" << round;
    }
  }
}

TEST(BatchSimTest, ApplyGraphAndResetMatchScalar) {
  const std::size_t n = 33;
  Rng rng(7);
  BatchBroadcastSim batch(n, 2);
  BroadcastSim scalar(n);
  BitMatrix g = BitMatrix::identity(n);
  for (int e = 0; e < 80; ++e) {
    g.set(rng.uniform(n), rng.uniform(n));
  }
  batch.applyGraph(g);
  scalar.applyGraph(g);
  for (std::size_t b = 0; b < 2; ++b) {
    EXPECT_EQ(batch.heardMatrix(b), scalarHeard(scalar));
  }
  EXPECT_EQ(batch.round(), 1u);
  batch.reset();
  EXPECT_EQ(batch.round(), 0u);
  EXPECT_EQ(batch.width(), 2u);
  EXPECT_EQ(batch.heardMatrix(0), scalarHeard(BroadcastSim(n)));
}

TEST(BatchSimTest, RetirementCompactsAndPreservesSurvivors) {
  // Lane 0 broadcasts in one round (a star); lane 1 crawls along a path.
  const std::size_t n = 8;
  std::vector<std::size_t> star(n, 0);
  std::vector<std::size_t> path(n);
  path[0] = 0;
  for (std::size_t i = 1; i < n; ++i) path[i] = i - 1;
  const RootedTree starTree(0, star);
  const RootedTree pathTree(0, path);
  BatchBroadcastSim batch(n, 2);
  BroadcastSim survivor(n);
  std::vector<const RootedTree*> trees = {&starTree, &pathTree};
  batch.applyTrees(trees);
  survivor.applyTree(pathTree);
  const std::vector<std::size_t> retired = batch.retireBroadcastDone();
  ASSERT_EQ(retired, std::vector<std::size_t>{0});
  ASSERT_EQ(batch.width(), 1u);
  EXPECT_EQ(batch.originalLane(0), 1u);
  // The surviving lane keeps running, now on the fast shared path.
  while (!batch.broadcastDone(0)) {
    batch.applyTree(pathTree);
    survivor.applyTree(pathTree);
    EXPECT_EQ(batch.heardMatrix(0), scalarHeard(survivor));
  }
  EXPECT_EQ(batch.round(), n - 1);
}

// --- runObliviousBatch vs runAdversary ------------------------------

void expectBatchMatchesScalar(std::size_t n,
                              std::vector<std::unique_ptr<Adversary>> batch,
                              std::vector<std::unique_ptr<Adversary>> scalar,
                              std::size_t cap) {
  std::vector<Adversary*> lanes;
  for (const auto& a : batch) lanes.push_back(a.get());
  const std::vector<BroadcastRun> batched = runObliviousBatch(n, lanes, cap);
  ASSERT_EQ(batched.size(), scalar.size());
  for (std::size_t i = 0; i < scalar.size(); ++i) {
    const BroadcastRun expect = runAdversary(n, *scalar[i], cap);
    EXPECT_EQ(batched[i].rounds, expect.rounds) << "lane " << i;
    EXPECT_EQ(batched[i].completed, expect.completed) << "lane " << i;
  }
}

TEST(ObliviousBatchTest, MixedPortfolioAgreesWithScalarRuns) {
  for (const std::size_t n : {2ul, 17ul, 64ul, 65ul}) {
    std::vector<std::unique_ptr<Adversary>> batch;
    std::vector<std::unique_ptr<Adversary>> scalar;
    for (int copy = 0; copy < 2; ++copy) {
      batch.push_back(std::make_unique<StaticPathAdversary>(n));
      scalar.push_back(std::make_unique<StaticPathAdversary>(n));
      batch.push_back(std::make_unique<AlternatingPathAdversary>(n));
      scalar.push_back(std::make_unique<AlternatingPathAdversary>(n));
      const std::uint64_t seed = 900 + static_cast<std::uint64_t>(copy);
      batch.push_back(std::make_unique<RandomPathAdversary>(n, seed));
      scalar.push_back(std::make_unique<RandomPathAdversary>(n, seed));
      batch.push_back(std::make_unique<UniformRandomAdversary>(n, seed));
      scalar.push_back(std::make_unique<UniformRandomAdversary>(n, seed));
    }
    expectBatchMatchesScalar(n, std::move(batch), std::move(scalar),
                             defaultRoundCap(n));
  }
}

TEST(ObliviousBatchTest, RoundCapStallReportsLikeScalarDriver) {
  // A 3-round cap on static-path at n=16 stalls every lane: rounds ==
  // cap, completed == false — exactly what runAdversary reports.
  const std::size_t n = 16;
  std::vector<std::unique_ptr<Adversary>> batch;
  std::vector<std::unique_ptr<Adversary>> scalar;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(std::make_unique<StaticPathAdversary>(n));
    scalar.push_back(std::make_unique<StaticPathAdversary>(n));
  }
  expectBatchMatchesScalar(n, std::move(batch), std::move(scalar), 3);
}

TEST(ObliviousBatchTest, SingleProcessCompletesAtRoundZero) {
  std::vector<std::unique_ptr<Adversary>> batch;
  batch.push_back(std::make_unique<StaticPathAdversary>(1));
  std::vector<Adversary*> lanes = {batch[0].get()};
  const std::vector<BroadcastRun> runs = runObliviousBatch(1, lanes, 10);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].rounds, 0u);
  EXPECT_TRUE(runs[0].completed);
}

// --- engine-level bit identity --------------------------------------

ScenarioSpec mixedScenario() {
  ScenarioSpec spec;
  spec.sizes = {5, 33, 64};
  spec.masterSeed = 2026;
  spec.seedsPerSize = 9;  // not a multiple of any tested width
  spec.adversaries = {"static-path", "random-path", "k-leaf:k=2"};
  return spec;
}

TEST(BatchedSweepTest, WidthsAndJobsAreOutputInvariant) {
  ScenarioSpec spec = mixedScenario();
  spec.batch = {BatchPolicy::Mode::kOff, 0};
  ExperimentEngine serial(EngineConfig{/*jobs=*/1});
  const ScenarioResult reference = runScenario(spec, serial);
  ASSERT_FALSE(reference.rows.empty());
  for (const std::size_t width : {1ul, 3ul, 8ul, 64ul}) {
    spec.batch = {BatchPolicy::Mode::kFixed, width};
    EXPECT_EQ(runScenario(spec, serial).rows, reference.rows)
        << "batch width " << width << ", jobs=1";
    ExperimentEngine threaded(EngineConfig{/*jobs=*/8});
    EXPECT_EQ(runScenario(spec, threaded).rows, reference.rows)
        << "batch width " << width << ", jobs=8";
  }
  spec.batch = {BatchPolicy::Mode::kAuto, 0};
  EXPECT_EQ(runScenario(spec, serial).rows, reference.rows) << "batch=auto";
}

TEST(BatchedSweepTest, AdaptiveMembersFallBackToScalarUnchanged) {
  // A member list mixing oblivious and adaptive members batches only the
  // oblivious positions; the adaptive rows must be untouched.
  ScenarioSpec spec;
  spec.sizes = {12};
  spec.masterSeed = 77;
  spec.seedsPerSize = 8;
  spec.adversaries = {"static-path", "heard-asc-path"};
  ExperimentEngine engine(EngineConfig{/*jobs=*/1});
  spec.batch = {BatchPolicy::Mode::kOff, 0};
  const ScenarioResult reference = runScenario(spec, engine);
  spec.batch = {BatchPolicy::Mode::kFixed, 4};
  EXPECT_EQ(runScenario(spec, engine).rows, reference.rows);
}

TEST(BatchPolicyTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(parseBatchPolicy("auto").mode, BatchPolicy::Mode::kAuto);
  EXPECT_EQ(parseBatchPolicy("off").mode, BatchPolicy::Mode::kOff);
  const BatchPolicy fixed = parseBatchPolicy("8");
  EXPECT_EQ(fixed.mode, BatchPolicy::Mode::kFixed);
  EXPECT_EQ(fixed.width, 8u);
  EXPECT_EQ(batchPolicyName(fixed), "8");
  EXPECT_EQ(batchPolicyName(parseBatchPolicy("auto")), "auto");
  for (const char* bad : {"0", "9999", "fast"}) {
    EXPECT_THROW(static_cast<void>(parseBatchPolicy(bad)),
                 std::invalid_argument)
        << bad;
  }
}

}  // namespace
}  // namespace dynbcast
