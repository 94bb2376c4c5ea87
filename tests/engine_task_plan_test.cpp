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
  const ScenarioPlan plan(spec);
  std::vector<SweepRow> rows;
  for (std::size_t p = 0; p < plan.rowCount(); ++p) {
    rows.push_back(plan.run(p));
  }
  return rows;
}

TEST(TaskPlanTest, PlanFieldsAreAPureFunctionOfPosition) {
  ScenarioSpec spec;
  spec.sizes = {4, 6, 8};
  spec.seedsPerSize = 2;
  spec.masterSeed = 11;

  const ScenarioPlan scenario(spec);
  const std::size_t width = resolvedScenarioMemberSpecs(spec).size();
  ASSERT_GT(width, 1u);  // the standard portfolio
  ASSERT_EQ(scenario.rowCount(), 3 * 2 * width);

  const SeedSequence seeds(spec.masterSeed);
  for (std::size_t p = 0; p < scenario.rowCount(); ++p) {
    const ScenarioRowPlan plan = scenario.row(p);
    EXPECT_EQ(planScenarioRow(spec, p).memberSpec, plan.memberSpec);
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

// The anti-drift pin for the row executor: at any job count, every row
// runScenario lands must equal ScenarioPlan::run at that position — the
// call a service job makes for each row task — for fixed (static-path),
// random (random-path) and adaptive (heard-asc-path) members alike.
TEST(TaskPlanTest, BroadcastTreeExecutorMatchesScalarRows) {
  ScenarioSpec spec;
  spec.sizes = {5, 33};
  spec.seedsPerSize = 9;
  spec.masterSeed = 7;
  spec.adversaries = {"static-path", "random-path", "heard-asc-path"};
  const std::vector<SweepRow> expected = rowsFromPlan(spec);

  for (const std::size_t jobs : {1u, 8u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    ExperimentEngine engine = makeEngine(jobs);
    expectRowsEqual(expected, runScenario(spec, engine).rows);
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
      ScenarioPlan(spec).aggregate(direct.rows);
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
  // `dynbcast sweep` and the service both run runScenarioBeamTask; its
  // seed must stay the derivation the committed goldens were made with,
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
