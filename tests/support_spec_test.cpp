// Error-path coverage for the shared `name:key=value,...` spec grammar —
// the one surface both registries (adversaries and dynamics) parse user
// input through, so every malformed shape must fail loudly, name the
// axis it broke, and (for near-miss names) suggest the intended one.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/adversary/registry.h"
#include "src/dynamics/registry.h"
#include "src/support/spec.h"

namespace dynbcast {
namespace {

/// Runs `body`, asserting it throws std::invalid_argument whose message
/// contains every listed fragment.
template <typename F>
void expectSpecError(F&& body, const std::vector<std::string>& fragments) {
  try {
    body();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    for (const std::string& fragment : fragments) {
      EXPECT_NE(message.find(fragment), std::string::npos)
          << "message '" << message << "' lacks '" << fragment << "'";
    }
  }
}

TEST(SpecGrammarTest, EmptySpecIsRejected) {
  expectSpecError([] { (void)parseSpec("", "dynamics"); }, {"dynamics"});
  expectSpecError([] { (void)parseSpec("   ", "adversary"); }, {"adversary"});
}

TEST(SpecGrammarTest, EmptyNameWithParamsIsRejected) {
  expectSpecError([] { (void)parseSpec(":p=0.2", "dynamics"); }, {"dynamics"});
}

TEST(SpecGrammarTest, MissingEqualsIsRejected) {
  expectSpecError([] { (void)parseSpec("edge-markovian:p", "dynamics"); },
                  {"dynamics", "p"});
  expectSpecError([] { (void)parseSpec("beam:width", "adversary"); },
                  {"adversary", "width"});
}

TEST(SpecGrammarTest, EmptyKeyOrValueIsRejected) {
  expectSpecError([] { (void)parseSpec("edge-markovian:=0.2", "dynamics"); },
                  {"dynamics"});
  expectSpecError([] { (void)parseSpec("edge-markovian:p=", "dynamics"); },
                  {"dynamics"});
  expectSpecError([] { (void)parseSpec("edge-markovian:p=0.2,,q=0.1",
                                 "dynamics"); },
                  {"dynamics"});
}

TEST(SpecGrammarTest, DuplicateKeysAreRejected) {
  expectSpecError(
      [] { (void)parseSpec("edge-markovian:p=0.2,p=0.3", "dynamics"); },
      {"dynamics", "p"});
}

TEST(SpecGrammarTest, BadCharsetIsRejected) {
  expectSpecError([] { (void)parseSpec("edge markovian", "dynamics"); },
                  {"dynamics"});
  expectSpecError([] { (void)parseSpec("beam:wi dth=4", "adversary"); },
                  {"adversary"});
  EXPECT_FALSE(isValidSpecToken(""));
  EXPECT_FALSE(isValidSpecToken("a b"));
  EXPECT_FALSE(isValidSpecToken("a;b"));
  EXPECT_TRUE(isValidSpecToken("edge-markovian"));
  EXPECT_TRUE(isValidSpecToken("freeze_path.v2"));
}

TEST(SpecGrammarTest, TypedAccessNamesTheAxisAndKey) {
  const ParsedSpec spec = parseSpec("edge-markovian:p=banana", "dynamics");
  expectSpecError([&] { (void)spec.params.getDouble("p", 0.0); },
                  {"dynamics", "p", "banana"});
}

TEST(SpecGrammarTest, ParsePrintRoundTripIsCanonical) {
  const ParsedSpec spec =
      parseSpec("  edge-markovian : q=0.1 , p=0.2 ", "dynamics");
  const std::string printed = formatSpec(spec.name, spec.params);
  EXPECT_EQ(printed, "edge-markovian:p=0.2,q=0.1");  // keys sorted
  const ParsedSpec again = parseSpec(printed, "dynamics");
  EXPECT_EQ(formatSpec(again.name, again.params), printed);
}

// ---------------------------------------------------------------------------
// Suggestion quality on both registries: a near-miss must come back as a
// "did you mean" naming the intended entry; rubbish must not suggest
// anything misleading.
// ---------------------------------------------------------------------------

TEST(SpecSuggestionTest, DynamicsRegistryNearMissesAreSuggested) {
  const DynamicsRegistry& registry = DynamicsRegistry::instance();
  const struct {
    const char* typo;
    const char* intended;
  } cases[] = {
      {"edge-markovain", "edge-markovian"},
      {"nonsplit-randm", "nonsplit-random"},
      {"t-intervall", "t-interval"},
      {"rooted-trees", "rooted-tree"},
  };
  for (const auto& c : cases) {
    expectSpecError([&] { (void)registry.info(c.typo); },
                    {c.typo, c.intended});
  }
}

TEST(SpecSuggestionTest, AdversaryRegistryNearMissesAreSuggested) {
  const AdversaryRegistry& registry = AdversaryRegistry::instance();
  for (const std::string& name : registry.names()) {
    // Drop the last character: edit distance 1 from the real name, so
    // the suggestion must recover it (no other registered name is
    // closer than the original).
    const std::string typo = name.substr(0, name.size() - 1);
    if (registry.contains(typo)) continue;  // prefix of another entry
    expectSpecError([&] { (void)registry.info(typo); }, {typo, name});
  }
}

TEST(SpecSuggestionTest, UnknownParameterKeysAreSuggested) {
  const DynamicsRegistry& dynamics = DynamicsRegistry::instance();
  expectSpecError(
      [&] {
        dynamics.validate(DynamicsSpec::parse("edge-markovian:pp=0.2"), 8);
      },
      {"pp", "p"});
  expectSpecError(
      [&] { dynamics.validate(DynamicsSpec::parse("t-interval:t=4"), 8); },
      {"t", "T"});
}

TEST(SpecSuggestionTest, FarFetchedNamesGetNoMisleadingSuggestion) {
  // closestMatch caps at edit distance 3 — garbage should yield no
  // suggestion rather than a random registry entry.
  EXPECT_EQ(closestMatch("zzzzzzzzzzzz",
                         DynamicsRegistry::instance().names()),
            "");
  EXPECT_EQ(closestMatch("qqqqqqqqqqqq",
                         AdversaryRegistry::instance().names()),
            "");
}

}  // namespace
}  // namespace dynbcast
