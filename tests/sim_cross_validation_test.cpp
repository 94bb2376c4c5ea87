// Integration: two independent implementations of Definitions 2.1–2.3
// must agree exactly. BroadcastSim (dense bitsets) and ProcessSim
// (literal message passing over std::set, a test oracle) are
// cross-checked round by round on tree sequences and, at n ≤ 64, on the
// graph-model dynamics' graphs; there each model's sparse arc rounds are
// also checked against its dense graphs, and the sampled t*-only
// frontier mode against the dense t*. All randomized sweeps shard
// through the ExperimentEngine.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "src/adversary/portfolio.h"
#include "src/dynamics/registry.h"
#include "src/engine/experiment_engine.h"
#include "src/sim/broadcast_sim.h"
#include "tests/oracles/process_sim.h"
#include "src/support/rng.h"
#include "src/tree/constrained.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {
namespace {

void expectAgreement(const BroadcastSim& fast, const ProcessSim& slow) {
  const std::size_t n = fast.processCount();
  ASSERT_EQ(slow.processCount(), n);
  for (std::size_t y = 0; y < n; ++y) {
    const auto& knowledge = slow.process(y).knowledge;
    EXPECT_EQ(fast.heardBy(y).count(), knowledge.size()) << "y=" << y;
    for (const std::size_t x : knowledge) {
      EXPECT_TRUE(fast.heardBy(y).test(x)) << "x=" << x << " y=" << y;
    }
  }
  EXPECT_EQ(fast.broadcastDone(), slow.broadcastDone());
  EXPECT_EQ(fast.gossipDone(), slow.gossipDone());
}

class CrossValidationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrossValidationTest, AgreeOnUniformRandomTrees) {
  const std::size_t n = GetParam();
  Rng rng(n * 17 + 3);
  BroadcastSim fast(n);
  ProcessSim slow(n);
  for (int r = 0; r < 40; ++r) {
    const RootedTree t = randomRootedTree(n, rng);
    fast.applyTree(t);
    slow.applyTree(t);
    expectAgreement(fast, slow);
  }
}

TEST_P(CrossValidationTest, AgreeOnRandomPaths) {
  const std::size_t n = GetParam();
  Rng rng(n * 29 + 1);
  BroadcastSim fast(n);
  ProcessSim slow(n);
  for (int r = 0; r < 30; ++r) {
    const RootedTree t = randomPath(n, rng);
    fast.applyTree(t);
    slow.applyTree(t);
    expectAgreement(fast, slow);
  }
}

TEST_P(CrossValidationTest, AgreeOnConstrainedTrees) {
  const std::size_t n = GetParam();
  if (n < 3) GTEST_SKIP() << "constrained generators need n >= 3";
  Rng rng(n * 31 + 7);
  BroadcastSim fast(n);
  ProcessSim slow(n);
  for (int r = 0; r < 20; ++r) {
    const std::size_t k = 1 + rng.uniform(n - 1);
    const RootedTree t = r % 2 == 0 ? randomTreeWithKLeaves(n, k, rng)
                                    : randomTreeWithKInnerNodes(n, k, rng);
    fast.applyTree(t);
    slow.applyTree(t);
    expectAgreement(fast, slow);
  }
}

// 65 and 128 straddle the 64-bit word boundary of the dense bitsets.
INSTANTIATE_TEST_SUITE_P(Sizes, CrossValidationTest,
                         ::testing::Values(2, 3, 4, 5, 8, 13, 21, 32, 65,
                                           128));

TEST(CrossValidationTest, SameBroadcastRoundOnIdenticalSequences) {
  // Both sims must report t* at the same round for the same sequence.
  Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + rng.uniform(10);
    BroadcastSim fast(n);
    ProcessSim slow(n);
    std::size_t fastDone = 0, slowDone = 0;
    for (std::size_t r = 1; r <= 10 * n; ++r) {
      const RootedTree t = randomRootedTree(n, rng);
      fast.applyTree(t);
      slow.applyTree(t);
      if (fastDone == 0 && fast.broadcastDone()) fastDone = r;
      if (slowDone == 0 && slow.broadcastDone()) slowDone = r;
      if (fastDone != 0 && slowDone != 0) break;
    }
    EXPECT_EQ(fastDone, slowDone);
    EXPECT_NE(fastDone, 0u);
  }
}

TEST(CrossValidationTest, EngineShardedPortfolioAgreementOnRandomInstances) {
  // Property-style sweep, sharded through the ExperimentEngine: for 200
  // random (n ≤ 24, seed) instances, EVERY portfolio member — driven by
  // the fast BroadcastSim it plays against — must complete broadcast at
  // the same round on the literal message-passing ProcessSim.
  constexpr std::size_t kInstances = 200;
  struct Verdict {
    bool ok = true;
    std::string detail;
  };
  ExperimentEngine engine(EngineConfig{.jobs = 2});
  const auto verdicts = engine.map<Verdict>(
      kInstances, 0xc0ffee, [](std::size_t, std::uint64_t taskSeed) {
        Rng rng(taskSeed);
        const std::size_t n = 2 + rng.uniform(23);  // n in [2, 24]
        const std::uint64_t seed = rng();
        Verdict verdict;
        for (const PortfolioMember& member : standardPortfolio(n, seed)) {
          const auto adversary = member.make();
          adversary->reset();
          BroadcastSim fast(n);
          ProcessSim slow(n);
          std::size_t fastDone = 0, slowDone = 0;
          const std::size_t cap = defaultRoundCap(n);
          for (std::size_t r = 1;
               r <= cap && (fastDone == 0 || slowDone == 0); ++r) {
            const RootedTree tree = adversary->nextTree(fast);
            fast.applyTree(tree);
            slow.applyTree(tree);
            if (fastDone == 0 && fast.broadcastDone()) fastDone = r;
            if (slowDone == 0 && slow.broadcastDone()) slowDone = r;
          }
          if (fastDone == 0 || fastDone != slowDone) {
            verdict.ok = false;
            verdict.detail = member.name + " at n=" + std::to_string(n) +
                             " seed=" + std::to_string(seed) +
                             ": BroadcastSim t*=" + std::to_string(fastDone) +
                             " ProcessSim t*=" + std::to_string(slowDone);
            return verdict;
          }
        }
        return verdict;
      });
  for (const Verdict& verdict : verdicts) {
    EXPECT_TRUE(verdict.ok) << verdict.detail;
  }
}

// ---------------------------------------------------------------------------
// Graph-model dynamics: dense ↔ message-passing ↔ sparse differential.
//
// Three legs: (a) at n ≤ 64, every round's nextGraph also goes through
// ProcessSim::applyGraph, and both simulators must agree after it; for
// models with a sparse interface, (b) every round, the model's
// nextSparseRound arcs plus the identity must equal its dense nextGraph
// exactly, and (c) the sampled t*-only frontier mode's certified answer
// must land on the dense t*. Sizes reach past 64
// so the t* mode exercises its backward-filter certification path, not
// just the all-sources shortcut; ProcessSim stops at 64 to keep its
// std::set rounds cheap.
// ---------------------------------------------------------------------------

constexpr std::size_t kMaxProcessSimN = 64;

void runGraphModelDifferential(const std::string& specText,
                               std::uint64_t sweepSeed) {
  constexpr std::size_t kInstances = 200;
  struct Verdict {
    bool ok = true;
    std::string detail;
  };
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  const DynamicsSpec spec = DynamicsSpec::parse(specText);
  ExperimentEngine engine(EngineConfig{.jobs = 2});
  const auto verdicts = engine.map<Verdict>(
      kInstances, sweepSeed, [&](std::size_t, std::uint64_t taskSeed) {
        Rng rng(taskSeed);
        const std::size_t n = 2 + rng.uniform(129);  // n in [2, 130]
        const std::uint64_t seed = rng();
        Verdict verdict;
        const auto fail = [&](const std::string& what) {
          verdict.ok = false;
          verdict.detail = spec.toString() + " at n=" + std::to_string(n) +
                           " seed=" + std::to_string(seed) + ": " + what;
          return verdict;
        };
        // One model per interface: a model run consumes either nextGraph
        // or nextSparseRound, never both.
        const auto denseModel = registry.make(spec, n, seed);
        const auto sparseModel = registry.make(spec, n, seed);
        denseModel->reset();
        sparseModel->reset();
        // nonsplit-skewed has no sparse interface: it runs leg (a) alone.
        const bool sparse = denseModel->supportsSparseRounds();
        BroadcastSim dense(n);
        std::optional<ProcessSim> processes;
        if (n <= kMaxProcessSimN) processes.emplace(n);
        const std::size_t cap = denseModel->defaultRoundCap();
        SparseRound round;
        std::size_t denseDone = 0;
        SCOPED_TRACE(spec.toString() + " at n=" + std::to_string(n) +
                     " seed=" + std::to_string(seed));
        while (dense.round() < cap && denseDone == 0) {
          const BitMatrix g = denseModel->nextGraph(dense);
          dense.applyGraph(g);
          if (processes) {
            processes->applyGraph(g);
            expectAgreement(dense, *processes);
          }
          if (sparse) {
            sparseModel->nextSparseRound(round);
            BitMatrix fromArcs = BitMatrix::identity(n);
            for (const auto& [src, dst] : round.arcs) fromArcs.set(src, dst);
            if (round.n != n || fromArcs != g) {
              return fail("round " + std::to_string(dense.round()) +
                          ": sparse arcs differ from the dense graph");
            }
          }
          if (dense.broadcastDone()) denseDone = dense.round();
        }
        if (!sparse) return verdict;
        // The sampled t*-only mode replays the same seed and must land on
        // the same certified round (or agree broadcast never completed).
        const auto tstarModel = registry.make(spec, n, seed);
        const BroadcastRun run =
            runFrontierDynamicsBroadcast(n, *tstarModel, cap, seed);
        if (denseDone != 0) {
          if (!run.completed || run.rounds != denseDone) {
            return fail("t*-mode mismatch: dense " +
                        std::to_string(denseDone) + " vs sampled " +
                        std::to_string(run.rounds) +
                        (run.completed ? "" : " (incomplete)"));
          }
        } else if (run.completed) {
          return fail("t*-mode completed at " + std::to_string(run.rounds) +
                      " but dense never completed within the cap");
        }
        return verdict;
      });
  for (const Verdict& verdict : verdicts) {
    EXPECT_TRUE(verdict.ok) << verdict.detail;
  }
}

TEST(CrossValidationTest, EngineShardedNonsplitRandomDifferential) {
  runGraphModelDifferential("nonsplit-random:p=0.3", 0xd1f401);
}

TEST(CrossValidationTest, EngineShardedNonsplitRandomCountModeDifferential) {
  runGraphModelDifferential("nonsplit-random:edges=12", 0xd1f402);
}

TEST(CrossValidationTest, EngineShardedNonsplitSkewedDifferential) {
  runGraphModelDifferential("nonsplit-skewed", 0xd1f406);
}

TEST(CrossValidationTest, EngineShardedEdgeMarkovianDifferential) {
  runGraphModelDifferential("edge-markovian:p=0.2,q=0.1", 0xd1f403);
}

TEST(CrossValidationTest, EngineShardedSparseEdgeMarkovianDifferential) {
  // Sparser graphs stretch t* toward the cap and exercise long frontier
  // tails — a different regime from the dense parameterization above.
  runGraphModelDifferential("edge-markovian:p=0.05,q=0.4", 0xd1f404);
}

TEST(CrossValidationTest, EngineShardedTIntervalDifferential) {
  runGraphModelDifferential("t-interval:T=4", 0xd1f405);
}

}  // namespace
}  // namespace dynbcast
