#include "src/engine/scenario.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/adversary/adversary.h"
#include "src/adversary/portfolio.h"
#include "src/bounds/bounds.h"
#include "src/engine/task_plan.h"
#include "src/sim/gossip.h"
#include "src/support/seed_sequence.h"

namespace dynbcast {
namespace {

TEST(ScenarioVocabularyTest, ObjectiveParseAndPrintRoundTrip) {
  EXPECT_EQ(parseObjective("broadcast"), Objective::kBroadcast);
  EXPECT_EQ(parseObjective("gossip"), Objective::kGossip);
  EXPECT_EQ(objectiveName(Objective::kGossip), "gossip");
  EXPECT_EQ(objectiveName(Objective::kBroadcast), "broadcast");
  EXPECT_THROW((void)parseObjective("gosip"), std::invalid_argument);
}

TEST(ScenarioVocabularyTest, UnknownDynamicsSuggestsNearest) {
  ExperimentEngine engine;
  ScenarioSpec scenario;
  scenario.sizes = {8};
  scenario.dynamics = "rootedtree";
  try {
    (void)runScenario(scenario, engine);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rooted-tree"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioVocabularyTest, DefaultAdversarySpecsFollowTheDynamics) {
  // rooted-tree defaults to the standard portfolio; restricted narrows
  // to its class members (parameterized by the dynamics spec); graph
  // models are their own single member.
  EXPECT_GE(defaultAdversarySpecs("rooted-tree").size(), 8u);
  const auto restricted = defaultAdversarySpecs("restricted:class=k-leaf,k=3");
  ASSERT_EQ(restricted.size(), 1u);
  EXPECT_EQ(restricted[0], "k-leaf:k=3");
  EXPECT_EQ(defaultAdversarySpecs("restricted").size(), 3u);
  const auto model = defaultAdversarySpecs("edge-markovian:p=0.5");
  ASSERT_EQ(model.size(), 1u);
  EXPECT_EQ(model[0], "edge-markovian:p=0.5");
  EXPECT_THROW((void)defaultAdversarySpecs("no-such-dynamics"),
               std::invalid_argument);
}

TEST(ScenarioTest, DefaultBroadcastScenarioMatchesRunSweepBitForBit) {
  // A default rooted-tree broadcast scenario is the standard portfolio
  // sweep: each instance's rows are exactly runPortfolio at the
  // instance's position-derived seed.
  ExperimentEngine engine({.jobs = 2});
  ScenarioSpec scenario;
  scenario.sizes = {6, 9};
  scenario.masterSeed = 11;
  scenario.seedsPerSize = 2;
  const ScenarioResult viaScenario = runScenario(scenario, engine);

  const SeedSequence seeds(11);
  ASSERT_EQ(viaScenario.instances.size(), 4u);
  std::size_t row = 0;
  for (std::size_t i = 0; i < viaScenario.instances.size(); ++i) {
    const SweepInstance& instance = viaScenario.instances[i];
    const PortfolioResult direct = runPortfolio(instance.n, seeds.at(i));
    EXPECT_EQ(instance.instanceSeed, seeds.at(i));
    EXPECT_EQ(instance.portfolio.bestRounds, direct.bestRounds);
    EXPECT_EQ(instance.portfolio.bestName, direct.bestName);
    for (const PortfolioEntry& entry : direct.entries) {
      ASSERT_LT(row, viaScenario.rows.size());
      const SweepRow& actual = viaScenario.rows[row++];
      EXPECT_EQ(actual.n, instance.n);
      EXPECT_EQ(actual.seedIndex, i % 2);
      EXPECT_EQ(actual.instanceSeed, seeds.at(i));
      EXPECT_EQ(actual.member, entry.name);
      EXPECT_EQ(actual.rounds, entry.rounds) << entry.name;
      EXPECT_EQ(actual.completed, entry.completed) << entry.name;
    }
  }
  EXPECT_EQ(row, viaScenario.rows.size());
}

TEST(ScenarioTest, ExplicitSpecListControlsRowsAndOrder) {
  ExperimentEngine engine;
  ScenarioSpec scenario;
  scenario.sizes = {8, 10};
  scenario.adversaries = {"static-path", "freeze-path:depth=2"};
  const ScenarioResult result = runScenario(scenario, engine);
  ASSERT_EQ(result.rows.size(), 4u);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    EXPECT_EQ(result.rows[i].member,
              i % 2 == 0 ? "static-path" : "freeze-path:depth=2");
  }
  // The static path is exact: t* = n-1 (paper §2).
  EXPECT_EQ(result.rows[0].rounds, 7u);
  EXPECT_EQ(result.rows[2].rounds, 9u);
}

TEST(ScenarioTest, GossipFactsFromThePaper) {
  // Static trees never complete gossip (a leaf's id cannot propagate);
  // dynamic oblivious sequences complete in Theta(n); and the capped
  // stall is reported via defaultGossipRoundCap, not the broadcast cap.
  ExperimentEngine engine;
  ScenarioSpec scenario;
  scenario.objective = Objective::kGossip;
  scenario.sizes = {8};
  scenario.adversaries = {"static-path", "alternating-path"};
  const ScenarioResult result = runScenario(scenario, engine);
  ASSERT_EQ(result.rows.size(), 2u);

  const ScenarioRow& staticRow = result.rows[0];
  EXPECT_FALSE(staticRow.completed);
  EXPECT_EQ(staticRow.rounds, defaultGossipRoundCap(8));

  const ScenarioRow& alternating = result.rows[1];
  EXPECT_TRUE(alternating.completed);
  EXPECT_GE(alternating.rounds, 8u);   // gossip >= broadcast >= n-1
  EXPECT_LE(alternating.rounds, 16u);  // ping-pong finishes in ~2n

  // The instance aggregate only counts completed runs.
  ASSERT_EQ(result.instances.size(), 1u);
  EXPECT_EQ(result.instances[0].portfolio.bestName, "alternating-path");
}

TEST(ScenarioTest, GossipDominatesBroadcastMemberwise) {
  ExperimentEngine engine;
  ScenarioSpec broadcast;
  broadcast.sizes = {10};
  broadcast.adversaries = {"alternating-path", "random-tree"};
  ScenarioSpec gossip = broadcast;
  gossip.objective = Objective::kGossip;
  const ScenarioResult b = runScenario(broadcast, engine);
  const ScenarioResult g = runScenario(gossip, engine);
  ASSERT_EQ(b.rows.size(), g.rows.size());
  for (std::size_t i = 0; i < b.rows.size(); ++i) {
    ASSERT_TRUE(g.rows[i].completed) << g.rows[i].member;
    EXPECT_GE(g.rows[i].rounds, b.rows[i].rounds) << g.rows[i].member;
  }
}

TEST(ScenarioTest, SingleProcessInstanceHasAWinnerAtRoundZero) {
  ExperimentEngine engine;
  ScenarioSpec scenario;
  scenario.sizes = {1};
  const ScenarioResult result = runScenario(scenario, engine);
  ASSERT_EQ(result.instances.size(), 1u);
  EXPECT_FALSE(result.instances[0].portfolio.bestName.empty());
  EXPECT_EQ(result.instances[0].portfolio.bestRounds, 0u);
}

TEST(ScenarioTest, SizeZeroIsRejected) {
  ScenarioSpec scenario;
  scenario.sizes = {0};
  EXPECT_THROW(validateScenario(scenario), std::invalid_argument);
  scenario.sizes = {8, 0};
  EXPECT_THROW(validateScenario(scenario), std::invalid_argument);
  scenario.sizes = {};
  EXPECT_THROW(validateScenario(scenario), std::invalid_argument);
}

TEST(ScenarioTest, ParameterValuesAreCheckedAtEverySize) {
  // Values a member cannot take at some listed size fail validation,
  // with the registry's message, before any row runs.
  const struct {
    const char* dynamics;
    std::vector<std::string> adversaries;
    std::vector<std::size_t> sizes;
    const char* fragment;
  } cases[] = {
      {"rooted-tree", {"k-leaf:k=3"}, {8, 2}, "k must satisfy 1 <= k <= n-1"},
      {"restricted:class=k-leaf,k=3", {}, {2, 8}, "(got k=3, n=2)"},
      {"rooted-tree", {"static-path", "k-leaf:k=50"}, {6}, "got k=50, n=6"},
      {"rooted-tree", {"exact"}, {4, 6},
       "2 <= n <= 5 (ExactSolver::kMaxPracticalN; got n=6)"},
      {"rooted-tree", {"local-search:freeze-depth=0"}, {8},
       "freeze-depth must be >= 1"},
      {"rooted-tree", {"beam:width=0"}, {4}, "adversary 'beam': "},
  };
  for (const auto& c : cases) {
    ScenarioSpec scenario;
    scenario.dynamics = c.dynamics;
    scenario.adversaries = c.adversaries;
    scenario.sizes = c.sizes;
    try {
      validateScenario(scenario);
      ADD_FAILURE() << c.fragment << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.fragment), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioTest, RestrictedDynamicsValidatesTheClass) {
  ExperimentEngine engine;
  ScenarioSpec scenario;
  scenario.dynamics = "restricted";
  scenario.sizes = {12};
  scenario.adversaries = {"greedy-delay"};
  EXPECT_THROW((void)runScenario(scenario, engine), std::invalid_argument);

  scenario.adversaries = {"k-leaf:k=3", "k-inner:k=3",
                          "freeze-broom:handle=4"};
  const ScenarioResult result = runScenario(scenario, engine);
  ASSERT_EQ(result.rows.size(), 3u);
  for (const ScenarioRow& row : result.rows) {
    EXPECT_TRUE(row.completed) << row.member;
    // Everything in the restricted classes obeys the O(kn) bound of [14].
    EXPECT_LE(row.rounds, bounds::kLeafUpper(12, 4)) << row.member;
  }
}

TEST(ScenarioTest, RestrictedClassParamsNarrowTheDefaultMembers) {
  ExperimentEngine engine;
  ScenarioSpec scenario;
  scenario.dynamics = "restricted:class=k-leaf,k=3";
  scenario.sizes = {12};
  const ScenarioResult result = runScenario(scenario, engine);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].member, "k-leaf:k=3");
  EXPECT_TRUE(result.rows[0].completed);

  scenario.dynamics = "restricted:class=no-such-class";
  EXPECT_THROW((void)runScenario(scenario, engine), std::invalid_argument);
}

TEST(ScenarioTest, NonsplitModelsStayWithinTheLogBound) {
  ExperimentEngine engine;
  for (const std::string& dynamics :
       {std::string("nonsplit-random"), std::string("nonsplit-skewed")}) {
    ScenarioSpec scenario;
    scenario.dynamics = dynamics;
    scenario.sizes = {16, 32};
    scenario.seedsPerSize = 2;
    const ScenarioResult result = runScenario(scenario, engine);
    ASSERT_EQ(result.rows.size(), 2u * 2u);
    for (const ScenarioRow& row : result.rows) {
      EXPECT_TRUE(row.completed) << row.member;
      EXPECT_LE(row.rounds, bounds::nonsplitLogUpper(row.n) + 8)
          << row.member;
    }
  }
}

TEST(ScenarioTest, GraphModelDynamicsRejectAdversaries) {
  // A graph model emits every round's graph itself; an adversary has no
  // move to make, so listing one (e.g. "exact") must fail loudly.
  ExperimentEngine engine;
  for (const std::string& dynamics :
       {std::string("edge-markovian:p=0.2,q=0.1"),
        std::string("t-interval:T=4"), std::string("nonsplit-random")}) {
    ScenarioSpec scenario;
    scenario.dynamics = dynamics;
    scenario.sizes = {8};
    scenario.adversaries = {"exact"};
    try {
      (void)runScenario(scenario, engine);
      FAIL() << "expected std::invalid_argument for " << dynamics;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("exact"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioTest, GossipIsRejectedOnGraphModelDynamics) {
  ExperimentEngine engine;
  for (const std::string& dynamics :
       {std::string("nonsplit-random"), std::string("nonsplit-skewed"),
        std::string("edge-markovian")}) {
    ScenarioSpec scenario;
    scenario.objective = Objective::kGossip;
    scenario.dynamics = dynamics;
    scenario.sizes = {8};
    EXPECT_THROW((void)runScenario(scenario, engine),
                 std::invalid_argument)
        << dynamics;
  }
}

TEST(ScenarioTest, NonsplitIsAnUnknownDynamicsName) {
  // The generator-list alias is gone: dynamics=nonsplit gets the
  // registry's unknown-name error, like any other typo.
  ExperimentEngine engine;
  ScenarioSpec scenario;
  scenario.dynamics = "nonsplit";
  scenario.sizes = {8};
  try {
    (void)runScenario(scenario, engine);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown dynamics model 'nonsplit'"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioTest, StochasticModelsCompleteWithinTheirCaps) {
  // Both KLO-style models must actually finish broadcast well before
  // their stall-detector caps at these parameters.
  ExperimentEngine engine;
  for (const std::string& dynamics :
       {std::string("edge-markovian:p=0.2,q=0.1"),
        std::string("t-interval:T=4")}) {
    ScenarioSpec scenario;
    scenario.dynamics = dynamics;
    scenario.sizes = {16, 32};
    scenario.seedsPerSize = 2;
    const ScenarioResult result = runScenario(scenario, engine);
    ASSERT_EQ(result.rows.size(), 4u) << dynamics;
    for (const ScenarioRow& row : result.rows) {
      EXPECT_TRUE(row.completed) << dynamics << " n=" << row.n;
      EXPECT_GE(row.rounds, 1u);
      EXPECT_LT(row.rounds, 10 * row.n + 50) << dynamics;
    }
  }
}

TEST(ScenarioTest, RowsAreBitIdenticalAcrossJobCounts) {
  // The determinism guarantee extends beyond the broadcast sweep: the
  // gossip and graph-model paths also derive every seed from the task's
  // position, so any --jobs value produces the same rows — including
  // for the stochastic model-zoo dynamics.
  for (const std::string& dynamics :
       {std::string("rooted-tree"), std::string("nonsplit-random"),
        std::string("edge-markovian:p=0.2,q=0.1"),
        std::string("t-interval:T=3")}) {
    ScenarioSpec scenario;
    scenario.dynamics = dynamics;
    scenario.sizes = {8, 12};
    scenario.seedsPerSize = 2;
    scenario.masterSeed = 99;
    if (dynamics == "rooted-tree") {
      scenario.objective = Objective::kGossip;
      scenario.adversaries = {"alternating-path", "random-tree",
                              "random-path"};
    }
    ExperimentEngine serial({.jobs = 1});
    ExperimentEngine parallel({.jobs = 8});
    const ScenarioResult a = runScenario(scenario, serial);
    const ScenarioResult b = runScenario(scenario, parallel);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
      EXPECT_EQ(a.rows[i], b.rows[i]) << dynamics << " row " << i;
    }
  }
}

TEST(ScenarioTest, HistoryIsRecordedOnDemand) {
  ExperimentEngine engine;
  ScenarioSpec scenario;
  scenario.sizes = {8};
  scenario.adversaries = {"static-path"};
  const ScenarioResult plain = runScenario(scenario, engine);
  EXPECT_TRUE(plain.rows[0].history.empty());

  scenario.recordHistory = true;
  const ScenarioResult traced = runScenario(scenario, engine);
  ASSERT_EQ(traced.rows.size(), 1u);
  EXPECT_EQ(traced.rows[0].history.size(), traced.rows[0].rounds);
  EXPECT_EQ(traced.rows[0].rounds, plain.rows[0].rounds);
}

TEST(ScenarioTest, GraphModelHistoryIsRecordedOnDemand) {
  // The model path gained history support in the migration (the old
  // nonsplit path never recorded it).
  ExperimentEngine engine;
  ScenarioSpec scenario;
  scenario.dynamics = "t-interval:T=2";
  scenario.sizes = {12};
  scenario.recordHistory = true;
  const ScenarioResult traced = runScenario(scenario, engine);
  ASSERT_EQ(traced.rows.size(), 1u);
  EXPECT_TRUE(traced.rows[0].completed);
  EXPECT_EQ(traced.rows[0].history.size(), traced.rows[0].rounds);
}

TEST(ScenarioVocabularyTest, BackendParseAndPrintRoundTrip) {
  EXPECT_EQ(parseBackendChoice("dense"), BackendChoice::kDense);
  EXPECT_EQ(parseBackendChoice("sparse"), BackendChoice::kSparse);
  EXPECT_EQ(parseBackendChoice("auto"), BackendChoice::kAuto);
  EXPECT_EQ(backendChoiceName(BackendChoice::kDense), "dense");
  EXPECT_EQ(backendChoiceName(BackendChoice::kSparse), "sparse");
  EXPECT_EQ(backendChoiceName(BackendChoice::kAuto), "auto");
  try {
    (void)parseBackendChoice("spars");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sparse"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioBackendTest, SparseRowsMatchDenseRowsBitForBit) {
  // The backend is an execution detail, not a semantics knob: at mirror
  // sizes (all of these are ≤ kAutoSparseThreshold) every row must be
  // identical across dense and sparse, for every sparse-capable model.
  // Sizes straddle 64 so the t*-mode's sampling/certification path runs.
  ExperimentEngine engine({.jobs = 2});
  for (const std::string& dynamics :
       {std::string("edge-markovian:p=0.2,q=0.1"),
        std::string("t-interval:T=3"),
        std::string("nonsplit-random:p=0.2")}) {
    ScenarioSpec scenario;
    scenario.dynamics = dynamics;
    scenario.sizes = {8, 24, 70, 100};
    scenario.seedsPerSize = 2;
    scenario.masterSeed = 5;
    scenario.backend = BackendChoice::kDense;
    const ScenarioResult dense = runScenario(scenario, engine);
    scenario.backend = BackendChoice::kSparse;
    const ScenarioResult sparse = runScenario(scenario, engine);
    ASSERT_EQ(dense.rows.size(), sparse.rows.size()) << dynamics;
    for (std::size_t i = 0; i < dense.rows.size(); ++i) {
      EXPECT_EQ(dense.rows[i], sparse.rows[i]) << dynamics << " row " << i;
    }
  }
}

TEST(ScenarioBackendTest, SparseWithHistoryIsRejected) {
  // The sparse backend computes t* alone, so a sparse run that asks for
  // per-round history is a spec error naming the engines that record it.
  ExperimentEngine engine;
  ScenarioSpec scenario;
  scenario.dynamics = "edge-markovian:p=0.25,q=0.1";
  scenario.sizes = {20};
  scenario.recordHistory = true;
  scenario.backend = BackendChoice::kSparse;
  for (const bool viaRun : {false, true}) {
    try {
      if (viaRun) {
        (void)runScenario(scenario, engine);
      } else {
        validateScenario(scenario);
      }
      FAIL() << "expected std::invalid_argument (viaRun=" << viaRun << ")";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("history"), std::string::npos) << what;
      EXPECT_NE(what.find("backend=dense"), std::string::npos) << what;
      EXPECT_NE(what.find("backend=auto"), std::string::npos) << what;
    }
  }
  // auto with history runs dense even above the sparse threshold.
  scenario.dynamics = "edge-markovian:p=0.01,q=0.5";
  scenario.sizes = {kAutoSparseThreshold + 1};
  scenario.backend = BackendChoice::kAuto;
  EXPECT_FALSE(ScenarioPlan(scenario).runsSparse(kAutoSparseThreshold + 1));
  const ScenarioResult dense = runScenario(scenario, engine);
  ASSERT_EQ(dense.rows.size(), 1u);
  EXPECT_TRUE(dense.rows[0].completed);
  EXPECT_EQ(dense.rows[0].history.size(), dense.rows[0].rounds);
}

TEST(ScenarioBackendTest, SparseRowsAreBitIdenticalAcrossJobCounts) {
  ScenarioSpec scenario;
  scenario.dynamics = "edge-markovian:p=0.2,q=0.1";
  scenario.sizes = {8, 24, 80};
  scenario.seedsPerSize = 2;
  scenario.masterSeed = 17;
  scenario.backend = BackendChoice::kSparse;
  ExperimentEngine serial({.jobs = 1});
  ExperimentEngine parallel({.jobs = 8});
  const ScenarioResult a = runScenario(scenario, serial);
  const ScenarioResult b = runScenario(scenario, parallel);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i], b.rows[i]) << "row " << i;
  }
}

TEST(ScenarioBackendTest, SparseIsRejectedWhereItCannotRun) {
  ExperimentEngine engine;
  const struct {
    const char* dynamics;
    const char* fragment;
  } cases[] = {
      // Adversary-driven dynamics read the dense simulator state.
      {"rooted-tree", "adversary-driven"},
      {"restricted", "adversary-driven"},
      // A graph model without a sparse path must name the capable ones.
      {"nonsplit-skewed", "sparse-capable"},
  };
  for (const auto& c : cases) {
    ScenarioSpec scenario;
    scenario.dynamics = c.dynamics;
    scenario.sizes = {8};
    scenario.backend = BackendChoice::kSparse;
    try {
      (void)runScenario(scenario, engine);
      FAIL() << "expected std::invalid_argument for " << c.dynamics;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.fragment), std::string::npos)
          << c.dynamics << ": " << e.what();
    }
  }
  // auto is always valid — it resolves to dense where sparse can't run.
  for (const char* dynamics : {"rooted-tree", "nonsplit-skewed"}) {
    ScenarioSpec scenario;
    scenario.dynamics = dynamics;
    scenario.sizes = {8};
    scenario.backend = BackendChoice::kAuto;
    const ScenarioResult result = runScenario(scenario, engine);
    EXPECT_FALSE(result.rows.empty()) << dynamics;
  }
}

TEST(GossipCapTest, GossipCapExceedsBroadcastCap) {
  // defaultRoundCap encodes the paper's broadcast bound; gossip runs
  // need more headroom (the ping-pong needs ~2n, and only a stall
  // detector bounds adaptive adversaries).
  for (const std::size_t n : {2u, 4u, 16u, 64u, 1024u, 65536u}) {
    EXPECT_GT(defaultGossipRoundCap(n), defaultRoundCap(n)) << n;
  }
}

}  // namespace
}  // namespace dynbcast
