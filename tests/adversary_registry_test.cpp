#include "src/adversary/registry.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/adversary/exact_solver.h"
#include "src/adversary/portfolio.h"
#include "src/sim/broadcast_sim.h"

namespace dynbcast {
namespace {

// The exact solver only supports tiny n; every other built-in is happy
// at this size.
std::size_t sizeFor(const std::string& name) {
  return name == "exact" ? 4 : 8;
}

TEST(AdversarySpecTest, ParsesBareName) {
  const AdversarySpec spec = AdversarySpec::parse("static-path");
  EXPECT_EQ(spec.name, "static-path");
  EXPECT_TRUE(spec.params.empty());
  EXPECT_EQ(spec.toString(), "static-path");
}

TEST(AdversarySpecTest, ParsesParamsAndPrintsCanonically) {
  const AdversarySpec spec = AdversarySpec::parse("beam:width=8,noise=2.5");
  EXPECT_EQ(spec.name, "beam");
  EXPECT_EQ(spec.params.getUInt("width", 0), 8u);
  EXPECT_DOUBLE_EQ(spec.params.getDouble("noise", 0), 2.5);
  // Canonical printing sorts keys; parsing the canonical form is a
  // fixed point.
  EXPECT_EQ(spec.toString(), "beam:noise=2.5,width=8");
  EXPECT_EQ(AdversarySpec::parse(spec.toString()).toString(),
            spec.toString());
}

TEST(AdversarySpecTest, TrimsWhitespace) {
  const AdversarySpec spec =
      AdversarySpec::parse("  freeze-path : depth = 3 ");
  EXPECT_EQ(spec.name, "freeze-path");
  EXPECT_EQ(spec.params.getUInt("depth", 0), 3u);
  EXPECT_EQ(spec.toString(), "freeze-path:depth=3");
}

TEST(AdversarySpecTest, MalformedSpecsThrow) {
  EXPECT_THROW((void)AdversarySpec::parse(""), std::invalid_argument);
  EXPECT_THROW((void)AdversarySpec::parse(":depth=3"),
               std::invalid_argument);
  EXPECT_THROW((void)AdversarySpec::parse("freeze-path:"),
               std::invalid_argument);
  EXPECT_THROW((void)AdversarySpec::parse("freeze-path:depth"),
               std::invalid_argument);
  EXPECT_THROW((void)AdversarySpec::parse("freeze-path:depth="),
               std::invalid_argument);
  EXPECT_THROW((void)AdversarySpec::parse("freeze-path:depth=1,depth=2"),
               std::invalid_argument);
  EXPECT_THROW((void)AdversarySpec::parse("freeze path:depth=1"),
               std::invalid_argument);
}

TEST(AdversaryRegistryTest, EveryBuiltinConstructs) {
  const AdversaryRegistry& registry = AdversaryRegistry::instance();
  const auto names = registry.names();
  EXPECT_GE(names.size(), 14u);
  for (const std::string& name : names) {
    const auto adversary = registry.make(name, sizeFor(name), 1);
    ASSERT_NE(adversary, nullptr) << name;
  }
}

TEST(AdversaryRegistryTest, NameRoundTripsThroughParsePrint) {
  // Invariant: every adversary's name() is itself a valid spec string in
  // canonical form — parse(name()).toString() == name(), and the
  // registry rebuilds an adversary of the same name from it.
  const AdversaryRegistry& registry = AdversaryRegistry::instance();
  for (const std::string& name : registry.names()) {
    const std::size_t n = sizeFor(name);
    const auto adversary = registry.make(name, n, 1);
    const AdversarySpec reparsed = AdversarySpec::parse(adversary->name());
    EXPECT_EQ(reparsed.toString(), adversary->name()) << name;
    const auto rebuilt = registry.make(reparsed, n, 1);
    EXPECT_EQ(rebuilt->name(), adversary->name()) << name;
  }
}

TEST(AdversaryRegistryTest, DuplicateRegistrationThrows) {
  AdversaryRegistry registry;  // local registry: no built-ins
  AdversaryInfo info;
  info.name = "test-adv";
  info.factory = [](std::size_t n, std::uint64_t,
                    const SpecParams&) -> std::unique_ptr<Adversary> {
    return AdversaryRegistry::instance().make("static-path", n, 1);
  };
  registry.add(info);
  EXPECT_TRUE(registry.contains("test-adv"));
  EXPECT_THROW(registry.add(info), std::invalid_argument);
}

TEST(AdversaryRegistryTest, UnknownNameSuggestsNearest) {
  try {
    (void)AdversaryRegistry::instance().make("freez-path", 8, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("freeze-path"), std::string::npos)
        << e.what();
  }
}

TEST(AdversaryRegistryTest, UnknownKeySuggestsNearest) {
  try {
    (void)AdversaryRegistry::instance().make("freeze-path:dept=3", 8, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("depth"), std::string::npos)
        << e.what();
  }
}

TEST(AdversaryRegistryTest, BadParameterValuesThrow) {
  const AdversaryRegistry& registry = AdversaryRegistry::instance();
  try {
    (void)registry.make("freeze-path:depth=abc", 8, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // Conversion errors name the spec axis they came from.
    EXPECT_NE(std::string(e.what()).find("adversary parameter"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)registry.make("freeze-path:depth=0", 8, 1),
               std::invalid_argument);
  EXPECT_THROW((void)registry.make("k-leaf:k=9", 8, 1),
               std::invalid_argument);  // k > n-1
  EXPECT_THROW((void)registry.make("freeze-broom:handle=9", 8, 1),
               std::invalid_argument);  // handle > n
  EXPECT_THROW((void)registry.make("exact", 9, 1),
               std::invalid_argument);  // beyond the exhaustive pool limit
  // Negative values must get the friendly error, not std::stoull's
  // silent wraparound into a huge unsigned (which once slipped past the
  // range guards into a raw constructor assert).
  EXPECT_THROW((void)registry.make("k-leaf:k=-1", 8, 1),
               std::invalid_argument);
  EXPECT_THROW((void)registry.make("beam:width=-3", 8, 1),
               std::invalid_argument);
}

TEST(AdversaryRegistryTest, BeamSpecValidationMatchesRegistryStyle) {
  // Both crash-prone configs are rejected eagerly at make() time with
  // registry-style messages, not at first nextTree() deep in a run.
  const AdversaryRegistry& registry = AdversaryRegistry::instance();
  try {
    (void)registry.make("beam:width=0", 8, 1);
    FAIL() << "width=0 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("adversary 'beam'"),
              std::string::npos)
        << e.what();
  }
  try {
    (void)registry.make("beam:diversity=101", 8, 1);
    FAIL() << "diversity=101 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("adversary 'beam'"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("100"), std::string::npos)
        << e.what();
  }
  // The boundary values themselves stay legal.
  EXPECT_NO_THROW((void)registry.make("beam:width=1,diversity=100", 4, 1));
}

TEST(AdversaryRegistryTest, SearchParamRangesAreRejectedAtMake) {
  // beam noise must be finite and >= 0 and local-search rev-p a
  // probability; all of these used to build and run.
  const AdversaryRegistry& registry = AdversaryRegistry::instance();
  const std::pair<const char*, const char*> bad[] = {
      {"beam:width=4,noise=nan", "adversary 'beam'"},
      {"beam:width=4,noise=-3", "adversary 'beam'"},
      {"beam:width=4,noise=inf", "adversary 'beam'"},
      {"local-search:rev-p=7", "adversary 'local-search'"},
      {"local-search:rev-p=-0.5", "adversary 'local-search'"},
      {"local-search:rev-p=nan", "adversary 'local-search'"},
      {"local-search:freeze-depth=0", "adversary 'local-search'"},
  };
  for (const auto& [spec, prefix] : bad) {
    try {
      (void)registry.make(spec, 8, 1);
      ADD_FAILURE() << spec << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(prefix), std::string::npos)
          << spec << ": " << e.what();
    }
  }
  // The boundary values themselves stay legal.
  EXPECT_NO_THROW((void)registry.make("beam:width=1,noise=0", 4, 1));
  EXPECT_NO_THROW((void)registry.make("local-search:rev-p=0", 4, 1));
  EXPECT_NO_THROW((void)registry.make("local-search:rev-p=1", 4, 1));
}

TEST(AdversaryRegistryTest, BeamNameCarriesTheFullSpec) {
  // Rebuilding a parameterized beam from its own name() must reproduce
  // the same configuration, not just the same width.
  const auto adversary =
      AdversaryRegistry::instance().make("beam:width=16,noise=2.0", 8, 1);
  EXPECT_EQ(adversary->name(), "beam:noise=2.0,width=16");
  EXPECT_EQ(AdversarySpec::parse(adversary->name()).toString(),
            adversary->name());
}

TEST(AdversaryRegistryTest, ParameterizedSpecsProduceDistinctBehavior) {
  const AdversaryRegistry& registry = AdversaryRegistry::instance();
  // k-leaf's parameter is directly observable: the generated trees have
  // exactly k leaves.
  const BroadcastSim state(12);
  auto twoLeaves = registry.make("k-leaf:k=2", 12, 5);
  auto fiveLeaves = registry.make("k-leaf:k=5", 12, 5);
  EXPECT_EQ(twoLeaves->nextTree(state).leafCount(), 2u);
  EXPECT_EQ(fiveLeaves->nextTree(state).leafCount(), 5u);
  EXPECT_NE(twoLeaves->name(), fiveLeaves->name());
  // freeze-broom's handle bounds its static height.
  auto shortBroom = registry.make("freeze-broom:handle=2", 12, 5);
  auto longBroom = registry.make("freeze-broom:handle=11", 12, 5);
  EXPECT_EQ(shortBroom->nextTree(state).height(), 2u);
  EXPECT_EQ(longBroom->nextTree(state).height(), 11u);
}

TEST(AdversaryRegistryTest, ExactReplayAchievesTheSolverValue) {
  const std::size_t n = 4;
  const ExactResult truth = ExactSolver(n).solve();
  auto adversary = AdversaryRegistry::instance().make("exact", n, 1);
  const BroadcastRun run =
      runAdversary(n, *adversary, defaultRoundCap(n));
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.rounds, truth.tStar);
  // Replay must survive reset: the second run reproduces the value.
  const BroadcastRun again =
      runAdversary(n, *adversary, defaultRoundCap(n));
  EXPECT_EQ(again.rounds, truth.tStar);
}

TEST(AdversaryRegistryTest, BeamReplayIsDeterministicAndVerified) {
  const std::size_t n = 8;
  auto a = AdversaryRegistry::instance().make("beam:width=16", n, 3);
  auto b = AdversaryRegistry::instance().make("beam:width=16", n, 3);
  const BroadcastRun runA = runAdversary(n, *a, defaultRoundCap(n));
  const BroadcastRun runB = runAdversary(n, *b, defaultRoundCap(n));
  EXPECT_TRUE(runA.completed);
  EXPECT_EQ(runA.rounds, runB.rounds);
  // The beam witness is at least as strong as the static baseline.
  EXPECT_GE(runA.rounds, n - 1);
}

TEST(PortfolioSpecsTest, StandardPortfolioResolvesThroughRegistry) {
  const auto specs = standardPortfolioSpecs();
  const auto members = standardPortfolio(8, 1);
  ASSERT_EQ(members.size(), specs.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    // Member display names are the canonical spec strings, and each
    // factory builds an adversary reporting exactly that name.
    EXPECT_EQ(members[i].name, AdversarySpec::parse(specs[i]).toString());
    EXPECT_EQ(members[i].make()->name(), members[i].name);
  }
}

TEST(PortfolioSpecsTest, BadSpecFailsAtCompositionTime) {
  EXPECT_THROW((void)membersFromSpecs({"static-path", "no-such-adv"}, 8, 1),
               std::invalid_argument);
  EXPECT_THROW((void)membersFromSpecs({"beam:widht=4"}, 8, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace dynbcast
