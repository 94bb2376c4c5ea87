// Service task semantics: the task grid covers every output cell, cache
// keys capture exactly the inputs that determine a result (and nothing
// more — that is what makes overlapping requests share work), and
// executing a task reproduces the engine bit for bit.

#include <gtest/gtest.h>

#include <string>

#include "src/adversary/beam.h"
#include "src/engine/scenario.h"
#include "src/engine/task_plan.h"
#include "src/service/job.h"

namespace dynbcast {
namespace {

TEST(ServiceJobTest, PlanCoversRowsPlusBeamTasksForTheoremSweeps) {
  ServiceRequest thm31;
  thm31.scenario.sizes = {4, 8, 16};
  thm31.scenario.seedsPerSize = 2;
  const ServiceJobPlan plan = planServiceJob(thm31);
  EXPECT_EQ(plan.rowCount, ScenarioPlan(thm31.scenario).rowCount());
  EXPECT_EQ(plan.beamCount, 3u);  // one witness task per size
  EXPECT_EQ(plan.taskCount(), plan.rowCount + 3u);

  ServiceRequest model;
  model.scenario.dynamics = "edge-markovian:p=0.2,q=0.1";
  model.scenario.sizes = {4, 8, 16};
  const ServiceJobPlan modelPlan = planServiceJob(model);
  EXPECT_EQ(modelPlan.beamCount, 0u);
}

TEST(ServiceJobTest, RowKeysAreUniqueAcrossPositions) {
  ServiceRequest request;
  request.scenario.sizes = {4, 6};
  request.scenario.seedsPerSize = 2;
  const ServiceJob job(request);

  std::vector<std::string> keys;
  for (std::size_t p = 0; p < job.plan().taskCount(); ++p) {
    keys.push_back(job.taskKey(p));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << "positions " << i << " and " << j;
    }
  }
}

// A request extended with extra sizes keeps its original positions'
// keys — seeds are position-derived, so a prefix extension is the
// overlap pattern the cache exploits.
TEST(ServiceJobTest, PrefixExtendedRequestsShareRowKeys) {
  ServiceRequest small;
  small.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  small.scenario.sizes = {6, 8};
  small.scenario.seedsPerSize = 2;

  ServiceRequest large = small;
  large.scenario.sizes = {6, 8, 10, 12};

  const ServiceJob smallJob(small);
  const ServiceJob largeJob(large);
  const std::size_t smallRows = smallJob.plan().rowCount;
  for (std::size_t p = 0; p < smallRows; ++p) {
    EXPECT_EQ(smallJob.taskKey(p), largeJob.taskKey(p)) << "position " << p;
  }
  EXPECT_GT(largeJob.plan().rowCount, smallRows);
}

TEST(ServiceJobTest, BackendChoiceNormalizesAtMirrorSizes) {
  // Below the sparse/dense mirror threshold rows are backend-invariant;
  // the key must say "dense" regardless of the requested choice so the
  // requests share cache cells.
  ServiceRequest autoChoice;
  autoChoice.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  autoChoice.scenario.sizes = {8};

  ServiceRequest dense = autoChoice;
  dense.scenario.backend = BackendChoice::kDense;
  ServiceRequest sparse = autoChoice;
  sparse.scenario.backend = BackendChoice::kSparse;

  EXPECT_EQ(serviceTaskKey(autoChoice, 0), serviceTaskKey(dense, 0));
  EXPECT_EQ(serviceTaskKey(autoChoice, 0), serviceTaskKey(sparse, 0));
  EXPECT_NE(serviceTaskKey(autoChoice, 0).find("backend=dense"),
            std::string::npos);
}

TEST(ServiceJobTest, BeamKeysRecordWhetherTheSearchRan) {
  ServiceRequest searched;
  searched.scenario.sizes = {8};
  searched.beamMaxN = 8;

  ServiceRequest skipped = searched;
  skipped.beamMaxN = 4;  // size 8 exceeds the cap → trivial task

  const std::size_t beamPos = planServiceJob(searched).rowCount;
  const std::string searchedKey = serviceTaskKey(searched, beamPos);
  const std::string skippedKey = serviceTaskKey(skipped, beamPos);
  EXPECT_NE(searchedKey, skippedKey);
  EXPECT_NE(searchedKey.find("searched=1"), std::string::npos);
  EXPECT_NE(skippedKey.find("searched=0"), std::string::npos);

  // The skipped task reports "no witness", completed.
  const ServiceTaskResult trivial = executeServiceTask(skipped, beamPos);
  EXPECT_EQ(trivial.rounds, 0u);
  EXPECT_TRUE(trivial.completed);
}

TEST(ServiceJobTest, RowTasksMatchTheEnginePlan) {
  ServiceRequest request;
  request.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  request.scenario.sizes = {6, 8};
  request.scenario.seedsPerSize = 2;
  request.scenario.masterSeed = 5;

  const ServiceJob job(request);
  for (std::size_t p = 0; p < job.plan().rowCount; ++p) {
    const SweepRow expected = job.scenario().run(p);
    const ServiceTaskResult actual = job.execute(p);
    EXPECT_EQ(actual.rounds, expected.rounds) << "position " << p;
    EXPECT_EQ(actual.completed, expected.completed) << "position " << p;
  }
}

TEST(ServiceJobTest, BeamTasksMatchTheSweepDerivation) {
  ServiceRequest request;
  request.scenario.sizes = {4, 6};
  request.scenario.masterSeed = 1;
  request.beamMaxN = 8;
  request.beamWidth = 32;

  const ServiceJobPlan plan = planServiceJob(request);
  for (std::size_t i = 0; i < request.scenario.sizes.size(); ++i) {
    const std::size_t n = request.scenario.sizes[i];
    BeamConfig cfg;
    cfg.beamWidth = request.beamWidth;
    cfg.randomMovesPerState = 8;
    cfg.diversityPercent = 40;
    const BeamResult witness = beamSearchWitness(
        n, scenarioBeamSeed(request.scenario.masterSeed, i), cfg);
    const std::size_t expected =
        verifyWitness(n, witness.witness) == witness.rounds ? witness.rounds
                                                            : 0;

    const ServiceTaskResult actual =
        executeServiceTask(request, plan.rowCount + i);
    EXPECT_EQ(actual.rounds, expected) << "size " << n;
    EXPECT_TRUE(actual.completed);
  }
}

TEST(ServiceJobTest, AssembledRowsMatchRunScenario) {
  ServiceRequest request;
  request.scenario.sizes = {4, 6};
  request.scenario.seedsPerSize = 2;
  request.scenario.masterSeed = 3;

  EngineConfig config;
  config.jobs = 2;
  ExperimentEngine engine(config);
  const ScenarioResult direct = runScenario(request.scenario, engine);

  const ServiceJob job(request);
  std::vector<ServiceTaskResult> results;
  for (std::size_t p = 0; p < job.plan().rowCount; ++p) {
    results.push_back(job.execute(p));
  }
  const std::vector<SweepRow> assembled = job.assembleRows(results);
  ASSERT_EQ(assembled.size(), direct.rows.size());
  for (std::size_t i = 0; i < assembled.size(); ++i) {
    EXPECT_EQ(assembled[i], direct.rows[i]) << "row " << i;
  }
}

/// FNV-1a of every task key of `request`, one per line, position order.
[[nodiscard]] std::string taskKeyDigest(const ServiceRequest& request) {
  const ServiceJob job(request);
  std::string keys;
  for (std::size_t p = 0; p < job.plan().taskCount(); ++p) {
    keys += job.taskKey(p) + "\n";
  }
  return hex64(fnv1a64(keys));
}

// Cache keys name on-disk cells, so every key must stay byte-identical
// across refactors of the plan: these digests pin all keys of a thm31
// request (rows and beam tasks) and of a graph-model request whose
// n = 5000 rows run sparse.
TEST(ServiceJobTest, TaskKeysArePinnedByDigest) {
  ServiceRequest thm31;
  thm31.scenario.sizes = {4, 8, 16};
  thm31.scenario.seedsPerSize = 2;
  thm31.scenario.masterSeed = 7;
  thm31.beamMaxN = 8;
  EXPECT_EQ(taskKeyDigest(thm31), "33bec6f38c58d505");

  ServiceRequest model;
  model.scenario.dynamics = "edge-markovian:p=0.2,q=0.1";
  model.scenario.sizes = {8, 5000};
  model.scenario.seedsPerSize = 3;
  model.scenario.masterSeed = 9;
  EXPECT_EQ(taskKeyDigest(model), "d1a1141e8ffd86da");

  // The per-call forward spells the same key.
  EXPECT_EQ(serviceTaskKey(model, 3), ServiceJob(model).taskKey(3));
}

}  // namespace
}  // namespace dynbcast
