// ExperimentEngine and the scenario executor on top of it. The
// load-bearing contract is determinism — a ScenarioSpec must produce
// bit-identical rows at any job count, because seeds are derived from
// row positions and results land in position-indexed slots. Everything
// the benches print flows through this, so these tests are what make
// --jobs safe to default on.
#include "src/engine/experiment_engine.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/adversary/portfolio.h"
#include "src/adversary/registry.h"
#include "src/engine/scenario.h"
#include "src/engine/task_plan.h"
#include "src/support/seed_sequence.h"

namespace dynbcast {
namespace {

TEST(EngineTest, EmptySweepProducesNoRows) {
  // validateScenario rejects an empty size list, so the empty sweep is
  // the row executor mapped over no positions (a worker with nothing
  // pending).
  ExperimentEngine engine;
  ScenarioSpec spec;
  spec.sizes = {8};
  const ScenarioPlan plan(spec);
  const std::vector<SweepRow> rows = engine.map<SweepRow>(
      0, 0, [&plan](std::size_t position, std::uint64_t) {
        return plan.run(position);
      });
  EXPECT_TRUE(rows.empty());
}

TEST(EngineTest, SingletonSweepMatchesDirectPortfolioRun) {
  ScenarioSpec spec;
  spec.sizes = {10};
  spec.masterSeed = 99;
  ExperimentEngine engine;
  const ScenarioResult result = runScenario(spec, engine);

  // The instance seed is position-derived; a serial runPortfolio with
  // that same seed must reproduce every row.
  const std::uint64_t instanceSeed = SeedSequence(99).at(0);
  const PortfolioResult direct = runPortfolio(10, instanceSeed);
  ASSERT_EQ(result.rows.size(), direct.entries.size());
  ASSERT_EQ(result.instances.size(), 1u);
  for (std::size_t i = 0; i < direct.entries.size(); ++i) {
    EXPECT_EQ(result.rows[i].member, direct.entries[i].name);
    EXPECT_EQ(result.rows[i].rounds, direct.entries[i].rounds);
    EXPECT_EQ(result.rows[i].completed, direct.entries[i].completed);
    EXPECT_EQ(result.rows[i].instanceSeed, instanceSeed);
  }
  EXPECT_EQ(result.instances[0].portfolio.bestRounds, direct.bestRounds);
  EXPECT_EQ(result.instances[0].portfolio.bestName, direct.bestName);
}

TEST(EngineTest, RowsAreOrderedBySizeThenSeedThenMember) {
  ScenarioSpec spec;
  spec.sizes = {6, 9};
  spec.seedsPerSize = 2;
  spec.masterSeed = 5;
  ExperimentEngine engine(EngineConfig{.jobs = 4});
  const ScenarioResult result = runScenario(spec, engine);

  const std::vector<std::string> members = standardPortfolioSpecs();
  ASSERT_EQ(result.rows.size(), 2 * 2 * members.size());
  std::size_t row = 0;
  for (const std::size_t n : {6, 9}) {
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t m = 0; m < members.size(); ++m, ++row) {
        EXPECT_EQ(result.rows[row].n, static_cast<std::size_t>(n));
        EXPECT_EQ(result.rows[row].seedIndex, r);
        EXPECT_EQ(result.rows[row].member,
                  AdversarySpec::parse(members[m]).toString());
      }
    }
  }
}

// The determinism regression — the same ScenarioSpec at jobs=1 and
// jobs=8 must produce identical rows (and hence identical CSVs), because
// seed derivation is position-based, not schedule-based.
TEST(EngineTest, SweepIsBitIdenticalAcrossJobCounts) {
  ScenarioSpec spec;
  spec.sizes = {4, 7, 12, 16};
  spec.seedsPerSize = 3;
  spec.masterSeed = 2026;

  ExperimentEngine serial(EngineConfig{.jobs = 1});
  ExperimentEngine parallel(EngineConfig{.jobs = 8});
  const ScenarioResult a = runScenario(spec, serial);
  const ScenarioResult b = runScenario(spec, parallel);

  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i], b.rows[i]) << "row " << i;
  }
  ASSERT_EQ(a.instances.size(), b.instances.size());
  for (std::size_t i = 0; i < a.instances.size(); ++i) {
    EXPECT_EQ(a.instances[i].portfolio.bestRounds,
              b.instances[i].portfolio.bestRounds);
    EXPECT_EQ(a.instances[i].portfolio.bestName,
              b.instances[i].portfolio.bestName);
  }
}

TEST(EngineTest, MapDerivesSeedsByPositionAndPreservesOrder) {
  ExperimentEngine engine(EngineConfig{.jobs = 4});
  struct Cell {
    std::size_t index = 0;
    std::uint64_t seed = 0;
  };
  const auto cells = engine.map<Cell>(
      64, 77, [](std::size_t i, std::uint64_t seed) {
        return Cell{i, seed};
      });
  const SeedSequence expected(77);
  ASSERT_EQ(cells.size(), 64u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].seed, expected.at(i));
  }
}

TEST(EngineTest, MapEmptyAndSingleton) {
  ExperimentEngine engine;
  EXPECT_TRUE((engine.map<int>(0, 1, [](std::size_t, std::uint64_t) {
                return 1;
              })).empty());
  const auto one = engine.map<int>(1, 1, [](std::size_t, std::uint64_t) {
    return 42;
  });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 42);
}

TEST(EngineTest, RecordHistoryFillsEveryRowInItsSingleRun) {
  // Every row records its history in the one run that yields its t*,
  // for fixed, random and adaptive members alike.
  ScenarioSpec spec;
  spec.sizes = {8, 11};
  spec.seedsPerSize = 8;
  spec.masterSeed = 3;
  spec.adversaries = {"static-path", "random-path", "greedy-delay"};
  spec.recordHistory = true;
  ExperimentEngine engine(EngineConfig{.jobs = 2});
  const ScenarioResult result = runScenario(spec, engine);
  ASSERT_EQ(result.rows.size(), 2u * 8u * 3u);
  for (const SweepRow& row : result.rows) {
    EXPECT_TRUE(row.completed) << row.member;
    EXPECT_EQ(row.history.size(), row.rounds)
        << "history must cover every round of " << row.member;
  }
}

TEST(EngineTest, CustomRoundCapLimitsRuns) {
  ScenarioSpec spec;
  spec.sizes = {16};
  spec.roundCap = 3;  // static path needs 15 rounds; it must be cut off
  ExperimentEngine engine;
  const ScenarioResult result = runScenario(spec, engine);
  ASSERT_FALSE(result.rows.empty());
  for (const SweepRow& row : result.rows) {
    EXPECT_FALSE(row.completed) << row.member;
    EXPECT_LE(row.rounds, 3u) << row.member;
  }
  EXPECT_EQ(result.instances[0].portfolio.bestRounds, 0u);
}

TEST(EngineTest, TaskExceptionPropagatesToCaller) {
  // validateScenario checks every value before a row runs, so no
  // scenario factory throws inside the pool any more; an exception a
  // pool task does raise must still reach the caller of map().
  ExperimentEngine engine(EngineConfig{.jobs = 2});
  EXPECT_THROW(
      (void)engine.map<int>(4, 1,
                            [](std::size_t i, std::uint64_t) -> int {
                              if (i == 2) throw std::invalid_argument("2");
                              return 0;
                            }),
      std::invalid_argument);
}

}  // namespace
}  // namespace dynbcast
