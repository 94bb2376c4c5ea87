// Task-plan equivalence: the serializable (spec, position) plan must
// reproduce runScenario() exactly — field for field — on every path.
// This is the contract the whole service layer stands on: a worker
// executing position p in another process lands the same bytes the
// engine would.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/engine/scenario.h"
#include "src/engine/task_plan.h"
#include "src/support/seed_sequence.h"

namespace dynbcast {
namespace {

[[nodiscard]] ExperimentEngine makeEngine(std::size_t jobs) {
  EngineConfig config;
  config.jobs = jobs;
  return ExperimentEngine(config);
}

void expectRowsEqual(const std::vector<SweepRow>& expected,
                     const std::vector<SweepRow>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].n, actual[i].n) << "row " << i;
    EXPECT_EQ(expected[i].seedIndex, actual[i].seedIndex) << "row " << i;
    EXPECT_EQ(expected[i].instanceSeed, actual[i].instanceSeed)
        << "row " << i;
    EXPECT_EQ(expected[i].member, actual[i].member) << "row " << i;
    EXPECT_EQ(expected[i].rounds, actual[i].rounds) << "row " << i;
    EXPECT_EQ(expected[i].completed, actual[i].completed) << "row " << i;
  }
}

[[nodiscard]] std::vector<SweepRow> rowsFromPlan(const ScenarioSpec& spec) {
  std::vector<SweepRow> rows;
  for (std::size_t p = 0; p < scenarioRowCount(spec); ++p) {
    rows.push_back(runScenarioRow(spec, p));
  }
  return rows;
}

TEST(TaskPlanTest, PlanFieldsAreAPureFunctionOfPosition) {
  ScenarioSpec spec;
  spec.sizes = {4, 6, 8};
  spec.seedsPerSize = 2;
  spec.masterSeed = 11;

  const std::size_t width = scenarioMembersPerInstance(spec);
  ASSERT_GT(width, 1u);  // the standard portfolio
  ASSERT_EQ(scenarioRowCount(spec), 3 * 2 * width);

  const SeedSequence seeds(spec.masterSeed);
  for (std::size_t p = 0; p < scenarioRowCount(spec); ++p) {
    const ScenarioRowPlan plan = planScenarioRow(spec, p);
    EXPECT_EQ(plan.position, p);
    EXPECT_EQ(plan.memberIndex, p % width);
    const std::size_t instance = p / width;
    EXPECT_EQ(plan.seedIndex, instance % spec.seedsPerSize);
    EXPECT_EQ(plan.sizeIndex, instance / spec.seedsPerSize);
    EXPECT_EQ(plan.n, spec.sizes[plan.sizeIndex]);
    EXPECT_EQ(plan.instanceSeed, seeds.at(instance));
    EXPECT_EQ(plan.memberSpec,
              resolvedScenarioMemberSpecs(spec)[plan.memberIndex]);
  }
}

// The anti-drift pin for the executor: whatever the batch policy and
// job count, every row runScenario (and so runScenarioPositions) lands
// must equal the scalar runScenarioRow at that position. Nine replicates
// make auto engage (one full 8-lane batch plus a 1-lane remainder) and
// split width 3 evenly; static-path batches on a shared tree,
// random-path on per-lane trees, and the adaptive heard-asc-path falls
// back to scalar tasks.
TEST(TaskPlanTest, BroadcastTreeExecutorMatchesScalarRows) {
  ScenarioSpec spec;
  spec.sizes = {5, 33};
  spec.seedsPerSize = 9;
  spec.masterSeed = 7;
  spec.adversaries = {"static-path", "random-path", "heard-asc-path"};
  const std::vector<SweepRow> scalar = rowsFromPlan(spec);

  for (const char* batch : {"auto", "off", "3"}) {
    spec.batch = parseBatchPolicy(batch);
    for (const std::size_t jobs : {1u, 8u}) {
      SCOPED_TRACE(std::string("batch=") + batch +
                   " jobs=" + std::to_string(jobs));
      ExperimentEngine engine = makeEngine(jobs);
      expectRowsEqual(scalar, runScenario(spec, engine).rows);

      // A subset of positions — every other one, so each member's batch
      // cells arrive partial — lands the same rows through the sink.
      std::vector<std::size_t> positions;
      for (std::size_t p = 0; p < scalar.size(); p += 2) {
        positions.push_back(p);
      }
      std::vector<SweepRow> rows(scalar.size());
      runScenarioPositions(spec, positions, engine,
                           [&rows](std::size_t position, SweepRow row) {
                             rows[position] = std::move(row);
                           });
      for (const std::size_t p : positions) {
        EXPECT_EQ(rows[p], scalar[p]) << "position " << p;
      }
    }
  }
}

TEST(TaskPlanTest, GossipPathMatchesRunScenario) {
  ScenarioSpec spec;
  spec.objective = Objective::kGossip;
  spec.sizes = {4, 6};
  spec.seedsPerSize = 2;
  spec.masterSeed = 5;

  ExperimentEngine engine = makeEngine(4);
  const ScenarioResult direct = runScenario(spec, engine);
  expectRowsEqual(direct.rows, rowsFromPlan(spec));
}

TEST(TaskPlanTest, GraphModelPathMatchesRunScenario) {
  ScenarioSpec spec;
  spec.dynamics = "edge-markovian:p=0.3,q=0.3";
  spec.sizes = {6, 8, 10};
  spec.seedsPerSize = 2;
  spec.masterSeed = 3;

  ExperimentEngine engine = makeEngine(4);
  const ScenarioResult direct = runScenario(spec, engine);
  expectRowsEqual(direct.rows, rowsFromPlan(spec));

  // And the plan's aggregation reproduces the per-instance view.
  const std::vector<SweepInstance> instances =
      aggregateScenarioInstances(spec, direct.rows);
  ASSERT_EQ(instances.size(), direct.instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(instances[i].n, direct.instances[i].n);
    EXPECT_EQ(instances[i].seedIndex, direct.instances[i].seedIndex);
    EXPECT_EQ(instances[i].instanceSeed, direct.instances[i].instanceSeed);
    EXPECT_EQ(instances[i].portfolio.bestRounds,
              direct.instances[i].portfolio.bestRounds);
    EXPECT_EQ(instances[i].portfolio.bestName,
              direct.instances[i].portfolio.bestName);
  }
}

TEST(TaskPlanTest, BeamSeedMatchesSweepDerivation) {
  // The CLI sweep derives beam task seeds as
  // engine.map(count, masterSeed ^ 0xbea3, ...) — i.e.
  // SeedSequence(masterSeed ^ salt).at(sizeIndex).
  const std::uint64_t masterSeed = 1;
  const SeedSequence seeds(masterSeed ^ kBeamSeedSalt);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(scenarioBeamSeed(masterSeed, i), seeds.at(i));
  }
}

}  // namespace
}  // namespace dynbcast
