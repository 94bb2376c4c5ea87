#include "src/adversary/portfolio.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/adversary/oblivious.h"
#include "src/bounds/bounds.h"

namespace dynbcast {
namespace {

// Counts its runs via reset() — runAdversary resets exactly once per run.
class RunCountingAdversary : public Adversary {
 public:
  RunCountingAdversary(std::size_t n, int& runs) : path_(n), runs_(runs) {}
  RootedTree nextTree(const BroadcastSim& state) override {
    return path_.nextTree(state);
  }
  std::string name() const override { return "run-counting"; }
  void reset() override {
    ++runs_;
    path_.reset();
  }

 private:
  StaticPathAdversary path_;
  int& runs_;
};

TEST(PortfolioTest, StandardMembersPresent) {
  const auto members = standardPortfolio(8, 1);
  EXPECT_GE(members.size(), 8u);
  bool hasStatic = false, hasGreedy = false, hasLocal = false;
  for (const auto& m : members) {
    hasStatic |= m.name == "static-path";
    hasGreedy |= m.name == "greedy-delay";
    hasLocal |= m.name == "local-search";
  }
  EXPECT_TRUE(hasStatic);
  EXPECT_TRUE(hasGreedy);
  EXPECT_TRUE(hasLocal);
}

TEST(PortfolioTest, FactoriesProduceNamedAdversaries) {
  for (const auto& m : standardPortfolio(6, 2)) {
    const auto adv = m.make();
    ASSERT_NE(adv, nullptr);
    EXPECT_EQ(adv->name(), m.name) << "factory/name mismatch";
  }
}

TEST(PortfolioTest, AllMembersCompleteWithinTheorem) {
  const PortfolioResult result = runPortfolio(12, 3);
  ASSERT_FALSE(result.entries.empty());
  for (const auto& e : result.entries) {
    EXPECT_TRUE(e.completed) << e.name;
    EXPECT_LE(e.rounds, bounds::linearUpper(12)) << e.name;
  }
  EXPECT_GT(result.bestRounds, 0u);
  EXPECT_FALSE(result.bestName.empty());
}

TEST(PortfolioTest, BestIsMaxOfEntries) {
  const PortfolioResult result = runPortfolio(10, 7);
  std::size_t maxRounds = 0;
  for (const auto& e : result.entries) {
    if (e.completed) maxRounds = std::max(maxRounds, e.rounds);
  }
  EXPECT_EQ(result.bestRounds, maxRounds);
}

TEST(PortfolioTest, BestAtLeastStaticBaselineAtMidSize) {
  // Online adversaries realize at least the static-path value; strictly
  // beating it requires offline search (see BeamWitnessTest).
  const PortfolioResult result = runPortfolio(16, 5);
  EXPECT_GE(result.bestRounds, 15u) << "portfolio below static path";
}

TEST(PortfolioTest, SubsetRunsOnlyRequestedMembers) {
  auto members = standardPortfolio(8, 1);
  members.resize(2);
  const PortfolioResult result = runPortfolio(8, 1, members);
  EXPECT_EQ(result.entries.size(), 2u);
}

TEST(PortfolioTest, HistoryComesFromASingleRunPerMember) {
  // Regression for the latent inefficiency: asking for history used to
  // mean re-running a member from scratch. Each member must run exactly
  // once whether or not history is recorded.
  int runsWithHistory = 0;
  int runsWithout = 0;
  const std::size_t n = 9;
  std::vector<PortfolioMember> withHistory;
  withHistory.push_back({"run-counting", [n, &runsWithHistory] {
                           return std::make_unique<RunCountingAdversary>(
                               n, runsWithHistory);
                         }});
  std::vector<PortfolioMember> without;
  without.push_back({"run-counting", [n, &runsWithout] {
                       return std::make_unique<RunCountingAdversary>(
                           n, runsWithout);
                     }});

  const PortfolioResult plain = runPortfolio(n, 1, without);
  const PortfolioResult traced =
      runPortfolio(n, 1, withHistory, /*recordHistory=*/true);

  EXPECT_EQ(runsWithout, 1);
  EXPECT_EQ(runsWithHistory, 1) << "history recording must not re-run";
  ASSERT_EQ(plain.entries.size(), 1u);
  ASSERT_EQ(traced.entries.size(), 1u);
  EXPECT_EQ(plain.entries[0].rounds, traced.entries[0].rounds);
  EXPECT_TRUE(plain.entries[0].history.empty());
  EXPECT_EQ(traced.entries[0].history.size(), traced.entries[0].rounds);
}

TEST(PortfolioTest, SingleProcessHasAWinnerAtRoundZero) {
  // Every member completes at round 0, so the first one is the best.
  const PortfolioResult result = runPortfolio(1, 3);
  for (const auto& e : result.entries) {
    EXPECT_TRUE(e.completed) << e.name;
    EXPECT_EQ(e.rounds, 0u) << e.name;
  }
  EXPECT_EQ(result.bestName, result.entries.front().name);
  EXPECT_EQ(result.bestRounds, 0u);
}

TEST(PortfolioTest, HistoryEmptyByDefault) {
  const PortfolioResult result = runPortfolio(8, 2);
  for (const auto& e : result.entries) {
    EXPECT_TRUE(e.history.empty()) << e.name;
  }
}

TEST(PortfolioTest, DeterministicAcrossInvocations) {
  const PortfolioResult a = runPortfolio(10, 42);
  const PortfolioResult b = runPortfolio(10, 42);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].rounds, b.entries[i].rounds) << a.entries[i].name;
  }
}

}  // namespace
}  // namespace dynbcast
