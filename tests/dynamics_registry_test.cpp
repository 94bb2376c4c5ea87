#include "src/dynamics/registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/graph/properties.h"
#include "src/sim/broadcast_sim.h"
#include "src/support/assert.h"
#include "tests/oracles/oracles.h"

namespace dynbcast {
namespace {

TEST(DynamicsSpecTest, ParseAndPrintRoundTrip) {
  const DynamicsSpec spec = DynamicsSpec::parse("edge-markovian:q=0.3,p=0.5");
  EXPECT_EQ(spec.name, "edge-markovian");
  EXPECT_DOUBLE_EQ(spec.params.getDouble("p", 0), 0.5);
  EXPECT_DOUBLE_EQ(spec.params.getDouble("q", 0), 0.3);
  // Canonical printing sorts keys; parsing the canonical form is a
  // fixed point.
  EXPECT_EQ(spec.toString(), "edge-markovian:p=0.5,q=0.3");
  EXPECT_EQ(DynamicsSpec::parse(spec.toString()).toString(),
            spec.toString());
  EXPECT_EQ(DynamicsSpec::parse(" t-interval : T = 8 ").toString(),
            "t-interval:T=8");
}

TEST(DynamicsSpecTest, ConversionErrorsNameTheAxis) {
  // Parsed params carry their axis, so a bad value in a scenario mixing
  // --dynamics and --adversaries says which spec broke.
  const DynamicsSpec spec = DynamicsSpec::parse("t-interval:T=abc");
  try {
    (void)spec.params.getUInt("T", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dynamics parameter"),
              std::string::npos)
        << e.what();
  }
}

TEST(DynamicsSpecTest, MalformedSpecsThrow) {
  EXPECT_THROW((void)DynamicsSpec::parse(""), std::invalid_argument);
  EXPECT_THROW((void)DynamicsSpec::parse(":p=1"), std::invalid_argument);
  EXPECT_THROW((void)DynamicsSpec::parse("t-interval:"),
               std::invalid_argument);
  EXPECT_THROW((void)DynamicsSpec::parse("t-interval:T"),
               std::invalid_argument);
  EXPECT_THROW((void)DynamicsSpec::parse("t-interval:T=4,T=8"),
               std::invalid_argument);
  EXPECT_THROW((void)DynamicsSpec::parse("t interval:T=4"),
               std::invalid_argument);
}

TEST(DynamicsRegistryTest, TheModelZooIsRegistered) {
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  for (const char* name :
       {"rooted-tree", "restricted", "nonsplit-random", "nonsplit-skewed",
        "edge-markovian", "t-interval"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  EXPECT_GE(registry.names().size(), 6u);
}

TEST(DynamicsRegistryTest, EveryGraphModelEmitsItsDeclaredClass) {
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  const std::size_t n = 12;
  const BroadcastSim state(n);
  for (const std::string& name : registry.names()) {
    const DynamicsInfo& info = registry.info(name);
    if (info.mode != DynamicsMode::kGraphModel) continue;
    const auto model = registry.make(name, n, 5);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_EQ(model->graphClass(), info.graphClass) << name;
    EXPECT_GE(model->defaultRoundCap(), 4u) << name;
    for (std::size_t round = 0; round < 3; ++round) {
      const BitMatrix g = model->nextGraph(state);
      ASSERT_EQ(g.dim(), n) << name;
      EXPECT_TRUE(g.isReflexive()) << name;
      if (info.graphClass == DynamicsClass::kNonsplit) {
        EXPECT_TRUE(isNonsplit(g)) << name;
      }
    }
  }
}

TEST(DynamicsRegistryTest, ModelsReplayDeterministicallyAcrossReset) {
  // The replay contract: same (n, seed) → same graph sequence, and
  // reset() rewinds to the constructed seed. This is what makes
  // position-seeded stochastic sweeps bit-identical at any job count.
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  // n = 24 keeps nonsplit-skewed's dispatcher span (n/8) above 1 — at
  // tiny n its graph is seed-independent by construction.
  const std::size_t n = 24;
  const BroadcastSim state(n);
  for (const std::string& spec :
       {std::string("nonsplit-random"), std::string("nonsplit-skewed"),
        std::string("edge-markovian:p=0.3,q=0.2"),
        std::string("t-interval:T=2")}) {
    const auto a = registry.make(spec, n, 42);
    const auto b = registry.make(spec, n, 42);
    std::vector<BitMatrix> firstRun;
    for (std::size_t round = 0; round < 5; ++round) {
      const BitMatrix ga = a->nextGraph(state);
      const BitMatrix gb = b->nextGraph(state);
      EXPECT_EQ(ga, gb) << spec << " round " << round;
      firstRun.push_back(ga);
    }
    a->reset();
    for (std::size_t round = 0; round < 5; ++round) {
      EXPECT_EQ(a->nextGraph(state), firstRun[round])
          << spec << " replay round " << round;
    }
    // A different seed must give a different sequence (all four models
    // are stochastic).
    const auto c = registry.make(spec, n, 43);
    bool anyDifferent = false;
    for (std::size_t round = 0; round < 5; ++round) {
      if (!(c->nextGraph(state) == firstRun[round])) anyDifferent = true;
    }
    EXPECT_TRUE(anyDifferent) << spec;
  }
}

TEST(DynamicsRegistryTest, ModelNamesAreCanonicalSpecs) {
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  const auto plain = registry.make("edge-markovian", 8, 1);
  EXPECT_EQ(plain->name(), "edge-markovian");
  const auto parameterized =
      registry.make("edge-markovian:q=0.4,p=0.6", 8, 1);
  EXPECT_EQ(parameterized->name(), "edge-markovian:p=0.6,q=0.4");
  EXPECT_EQ(DynamicsSpec::parse(parameterized->name()).toString(),
            parameterized->name());
}

TEST(DynamicsRegistryTest, UnknownNameSuggestsNearest) {
  try {
    (void)DynamicsRegistry::instance().make("edge-markovan", 8, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("edge-markovian"),
              std::string::npos)
        << e.what();
  }
}

TEST(DynamicsRegistryTest, UnknownKeySuggestsNearest) {
  try {
    (void)DynamicsRegistry::instance().make("t-interval:t=4", 8, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("T"), std::string::npos)
        << e.what();
  }
}

TEST(DynamicsRegistryTest, ParameterRangesAreValidatedEagerly) {
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  // validate() fires without constructing, so a bad sweep spec fails at
  // composition time, not inside a worker thread.
  EXPECT_THROW(
      registry.validate(DynamicsSpec::parse("edge-markovian:p=0"), 8),
      std::invalid_argument);
  EXPECT_THROW(
      registry.validate(DynamicsSpec::parse("edge-markovian:p=1.5"), 8),
      std::invalid_argument);
  EXPECT_THROW(
      registry.validate(DynamicsSpec::parse("edge-markovian:q=-0.1"), 8),
      std::invalid_argument);
  EXPECT_THROW(registry.validate(DynamicsSpec::parse("t-interval:T=0"), 8),
               std::invalid_argument);
  EXPECT_THROW(
      registry.validate(DynamicsSpec::parse("nonsplit-random:p=2"), 8),
      std::invalid_argument);
  // edges= (a count) and p= (a density) are alternative ways to set the
  // same knob: both at once is ambiguous and must be rejected, not
  // silently resolved in favor of one.
  EXPECT_THROW(registry.validate(
                   DynamicsSpec::parse("nonsplit-random:edges=4,p=0.5"), 8),
               std::invalid_argument);
  EXPECT_THROW(
      registry.validate(DynamicsSpec::parse("restricted:class=brooom"), 8),
      std::invalid_argument);
  // In-range values pass.
  registry.validate(DynamicsSpec::parse("edge-markovian:p=0.2,q=0.1"), 8);
  registry.validate(DynamicsSpec::parse("t-interval:T=1"), 8);
  registry.validate(DynamicsSpec::parse("restricted:class=broom,k=3"), 8);
}

TEST(DynamicsRegistryTest, AdversaryDrivenEntriesHaveNoStandaloneModel) {
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  EXPECT_THROW((void)registry.make("rooted-tree", 8, 1),
               std::invalid_argument);
  EXPECT_THROW((void)registry.make("restricted", 8, 1),
               std::invalid_argument);
}

TEST(DynamicsRegistryTest, DuplicateOrInconsistentRegistrationThrows) {
  DynamicsRegistry registry;  // local registry: no built-ins
  DynamicsInfo info;
  info.name = "test-model";
  info.mode = DynamicsMode::kGraphModel;
  info.factory = [](std::size_t n, std::uint64_t seed,
                    const SpecParams&) {
    return DynamicsRegistry::instance().make("nonsplit-skewed", n, seed);
  };
  registry.add(info);
  EXPECT_TRUE(registry.contains("test-model"));
  EXPECT_THROW(registry.add(info), std::invalid_argument);

  DynamicsInfo missingFactory;
  missingFactory.name = "no-factory";
  missingFactory.mode = DynamicsMode::kGraphModel;
  EXPECT_THROW(registry.add(missingFactory), std::invalid_argument);

  DynamicsInfo extraFactory = info;
  extraFactory.name = "tree-with-factory";
  extraFactory.mode = DynamicsMode::kAdversaryTrees;
  EXPECT_THROW(registry.add(extraFactory), std::invalid_argument);
}

TEST(DynamicsRegistryTest, EveryModelReplaysAtParamBoundaries) {
  // Registry-wide: every graph model × every documented parameter, pinned
  // at a boundary value the validator accepts, must construct and replay
  // deterministically across reset() — on nextGraph AND (when the entry
  // claims sparseCapable) on nextSparseRound. Guards the registry against
  // a model whose edge-of-range parameterization silently consumes
  // randomness differently on replay.
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  const std::size_t n = 24;
  const BroadcastSim state(n);
  // Boundary candidates per key, tried in order; the first one the
  // entry's validator accepts wins. Taking one key at a time also keeps
  // mutually-exclusive pairs (nonsplit-random's edges/p) apart.
  const std::vector<std::string> candidates = {"1", "0", "0.999", "0.001"};
  for (const std::string& name : registry.names()) {
    const DynamicsInfo& info = registry.info(name);
    if (info.mode != DynamicsMode::kGraphModel) continue;
    std::vector<std::string> specs = {name};  // all-defaults baseline
    for (const SpecParamDoc& param : info.params) {
      bool accepted = false;
      for (const std::string& value : candidates) {
        const std::string text = name + ":" + param.key + "=" + value;
        try {
          registry.validate(DynamicsSpec::parse(text), n);
        } catch (const std::invalid_argument&) {
          continue;
        }
        specs.push_back(text);
        accepted = true;
        break;
      }
      EXPECT_TRUE(accepted)
          << name << ": no boundary candidate accepted for key '"
          << param.key << "'";
    }
    for (const std::string& spec : specs) {
      const auto model = registry.make(spec, n, 77);
      std::vector<BitMatrix> firstRun;
      for (std::size_t round = 0; round < 4; ++round) {
        firstRun.push_back(model->nextGraph(state));
      }
      model->reset();
      for (std::size_t round = 0; round < 4; ++round) {
        EXPECT_EQ(model->nextGraph(state), firstRun[round])
            << spec << " replay round " << round;
      }
      EXPECT_EQ(model->supportsSparseRounds(), info.sparseCapable) << spec;
      if (!info.sparseCapable) continue;
      // The sparse interface replays too (fresh models: a run consumes
      // one interface only).
      const auto sparseA = registry.make(spec, n, 77);
      const auto sparseB = registry.make(spec, n, 77);
      SparseRound ra, rb;
      std::vector<SparseRound> sparseFirst;
      for (std::size_t round = 0; round < 4; ++round) {
        sparseA->nextSparseRound(ra);
        sparseB->nextSparseRound(rb);
        EXPECT_EQ(ra.arcs, rb.arcs) << spec << " round " << round;
        sparseFirst.push_back(ra);
      }
      sparseA->reset();
      for (std::size_t round = 0; round < 4; ++round) {
        sparseA->nextSparseRound(ra);
        EXPECT_EQ(ra.arcs, sparseFirst[round].arcs)
            << spec << " sparse replay round " << round;
      }
    }
  }
}

TEST(DynamicsRegistryTest, SparseRoundsMirrorDenseBelowThreshold) {
  // The mirror contract golden CSVs rely on: at n ≤
  // kSparseDenseMirrorMaxN, nextSparseRound must produce exactly the
  // dense graph's off-diagonal arcs (same seed, same round index).
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  const std::size_t n = 24;
  ASSERT_LE(n, kSparseDenseMirrorMaxN);
  const BroadcastSim state(n);
  for (const std::string& name : registry.names()) {
    const DynamicsInfo& info = registry.info(name);
    if (info.mode != DynamicsMode::kGraphModel || !info.sparseCapable) {
      continue;
    }
    const auto denseModel = registry.make(name, n, 31);
    const auto sparseModel = registry.make(name, n, 31);
    SparseRound round;
    for (std::size_t r = 0; r < 6; ++r) {
      const BitMatrix g = denseModel->nextGraph(state);
      sparseModel->nextSparseRound(round);
      ASSERT_EQ(round.n, n) << name;
      BitMatrix fromArcs = BitMatrix::identity(n);
      for (const auto& [src, dst] : round.arcs) {
        EXPECT_NE(src, dst) << name << ": self-loops must stay implicit";
        fromArcs.set(src, dst);
      }
      EXPECT_EQ(fromArcs, g) << name << " round " << r;
    }
  }
}

/// FNV-1a over every round's arc count and arcs (src then dst, each as
/// four little-endian bytes): one number that changes with any emitted
/// arc, its order, or a round boundary.
[[nodiscard]] std::uint64_t sparseStreamHash(DynamicsModel& model,
                                             std::size_t rounds) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t value, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      h ^= (value >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  SparseRound round;
  for (std::size_t r = 0; r < rounds; ++r) {
    model.nextSparseRound(round);
    mix(round.arcs.size(), 8);
    for (const auto& [src, dst] : round.arcs) {
      mix(src, 4);
      mix(dst, 4);
    }
  }
  return h;
}

TEST(DynamicsRegistryTest, NativeSparseRoundsArePinned) {
  // Above kSparseDenseMirrorMaxN the models draw arcs natively, with no
  // dense twin to compare against; these hashes pin exactly which arcs
  // (and RNG draws) that path produces, so a rewrite of the native
  // generators must reproduce them bit for bit. At p = 0.02 births often
  // land on present pairs and fill many merge chunks; at q = 1 every
  // present arc dies, so a birth that lands on one is rejected and
  // leaves that pair absent.
  struct Pin {
    const char* spec;
    std::size_t n;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {"edge-markovian:p=0.0002,q=0.5", 4097, 0x194d5d42ef69c060ull},
      {"edge-markovian:p=0.0002,q=0.5", 5000, 0x2dd99bbeb0495976ull},
      {"edge-markovian:p=0.02,q=0.2", 4097, 0x95bb4e1ea11e3ceeull},
      {"edge-markovian:p=0.02,q=0.2", 5000, 0x7860992730150158ull},
      {"edge-markovian:p=0.02,q=1", 4097, 0xdec3fd6e731bbea3ull},
      {"edge-markovian:p=0.02,q=1", 5000, 0xb333a41e671d4e79ull},
      {"nonsplit-random", 4097, 0x5ee81f331c80f35full},
      {"nonsplit-random", 5000, 0x8ecdc00a009ebe82ull},
      {"nonsplit-random:p=0.001", 4097, 0x1894f2d776cef873ull},
      {"nonsplit-random:p=0.001", 5000, 0x1e11b28b4728a4baull},
      {"t-interval:T=3", 4097, 0x0739384585fed631ull},
      {"t-interval:T=3", 5000, 0x1ffb4566bec82732ull},
  };
  for (const Pin& pin : pins) {
    ASSERT_GT(pin.n, kSparseDenseMirrorMaxN);
    const auto model = DynamicsRegistry::instance().make(pin.spec, pin.n, 9);
    const std::uint64_t hash = sparseStreamHash(*model, 5);
    EXPECT_EQ(hash, pin.hash)
        << pin.spec << " n=" << pin.n << " got 0x" << std::hex << hash;
  }
}

TEST(DynamicsDriverTest, RunDynamicsBroadcastCompletesAndReplays) {
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  for (const std::string& spec :
       {std::string("nonsplit-random"),
        std::string("edge-markovian:p=0.25,q=0.1"),
        std::string("t-interval:T=3")}) {
    const auto model = registry.make(spec, 16, 9);
    const BroadcastRun first =
        runDynamicsBroadcast(16, *model, model->defaultRoundCap());
    EXPECT_TRUE(first.completed) << spec;
    EXPECT_GE(first.rounds, 1u) << spec;
    // The driver resets the model, so a second run replays bit for bit.
    const BroadcastRun again =
        runDynamicsBroadcast(16, *model, model->defaultRoundCap());
    EXPECT_EQ(first.rounds, again.rounds) << spec;
    EXPECT_EQ(first.completed, again.completed) << spec;
  }
}

/// Declares kNonsplit but emits the identity, a split graph, in round 2.
/// Round 1 is nonsplit without finishing broadcast: hubs 0, 1 and 2 reach
/// residue classes {0,1}, {1,2} and {0,2} mod 3, so every pair shares a
/// hub and no node reaches everyone.
class SplitInRoundTwoModel final : public DynamicsModel {
 public:
  explicit SplitInRoundTwoModel(std::size_t n) : n_(n) {}

  BitMatrix nextGraph(const BroadcastSim& state) override {
    if (state.round() > 0) return BitMatrix::identity(n_);
    BitMatrix g = BitMatrix::identity(n_);
    for (std::size_t y = 0; y < n_; ++y) {
      for (std::size_t hub = 0; hub < 3; ++hub) {
        if (y % 3 != (hub + 2) % 3) g.set(hub, y);
      }
    }
    return g;
  }
  std::string name() const override { return "split-in-round-two"; }
  DynamicsClass graphClass() const override {
    return DynamicsClass::kNonsplit;
  }
  std::size_t defaultRoundCap() const override { return 8; }

 private:
  std::size_t n_;
};

TEST(DynamicsDriverTest, SplitGraphFromNonsplitModelIsRejected) {
  // The generators no longer assert their own output, so this driver
  // check is what stands between a split graph and the simulator.
  SplitInRoundTwoModel model(9);
  try {
    (void)runDynamicsBroadcast(9, model, model.defaultRoundCap());
    FAIL() << "a split graph from a nonsplit model was applied";
  } catch (const AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "declared nonsplit but emitted a split graph"),
              std::string::npos)
        << e.what();
  }
}

TEST(DynamicsDriverTest, HistoryMatchesRoundsAndEdgesGrow) {
  const auto model =
      DynamicsRegistry::instance().make("edge-markovian:p=0.3,q=0.1", 12, 4);
  const BroadcastRun run =
      runDynamicsBroadcast(12, *model, model->defaultRoundCap(), true);
  ASSERT_TRUE(run.completed);
  ASSERT_EQ(run.history.size(), run.rounds);
  for (std::size_t i = 1; i < run.history.size(); ++i) {
    // The heard-of state is monotone: total edges never shrink.
    EXPECT_GE(run.history[i].totalEdges, run.history[i - 1].totalEdges);
  }
}

TEST(DynamicsDriverTest, TIntervalHoldsEachGraphForTRounds) {
  const auto model =
      DynamicsRegistry::instance().make("t-interval:T=3", 10, 11);
  const BroadcastSim state(10);
  std::vector<BitMatrix> graphs;
  for (std::size_t i = 0; i < 9; ++i) graphs.push_back(model->nextGraph(state));
  for (std::size_t period = 0; period < 3; ++period) {
    EXPECT_EQ(graphs[3 * period], graphs[3 * period + 1]) << period;
    EXPECT_EQ(graphs[3 * period], graphs[3 * period + 2]) << period;
    // Each period's graph is a symmetric connected spanning subgraph.
    EXPECT_TRUE(isRooted(graphs[3 * period])) << period;
  }
  // Rewiring happens: 3 independent random trees on 10 nodes collide
  // with negligible probability.
  EXPECT_FALSE(graphs[0] == graphs[3] && graphs[3] == graphs[6]);
}

}  // namespace
}  // namespace dynbcast
