// Worker-loop guarantees, including the two service acceptance
// criteria:
//
//   * checkpoint/resume — a manifest truncated at a task boundary (the
//     kill -9 damage model) resumes by re-running ONLY the unfinished
//     positions, and the final CSV is byte-identical to an
//     uninterrupted run, at --jobs=1 and --jobs=8;
//   * cache correctness — overlapping sweeps sharing a result cache
//     stay byte-identical to cold runs, and the second request executes
//     exactly the non-overlapping delta (counters exposed via
//     WorkerReport).

#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "src/engine/scenario.h"
#include "src/engine/task_plan.h"
#include "src/service/job.h"
#include "src/service/manifest.h"
#include "src/service/protocol.h"
#include "src/service/worker.h"
#include "src/support/file_lock.h"
#include "src/support/table.h"

namespace dynbcast {
namespace {

class ServiceWorkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "dynbcast_worker_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);  // stale state from prior runs
    makeDirectories(dir_);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  std::string dir_;
};

/// A small graph-model request: 1 member per instance, no beam pass, so
/// positions map 1:1 onto rows.
[[nodiscard]] ServiceRequest makeRequest(std::vector<std::size_t> sizes) {
  ServiceRequest request;
  request.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  request.scenario.sizes = std::move(sizes);
  request.scenario.seedsPerSize = 2;
  request.scenario.masterSeed = 7;
  return request;
}

void writeManifestFor(const std::string& manifestPath,
                      const ServiceRequest& request) {
  initManifest(manifestPath, canonicalRequestString(request),
               planServiceJob(request).taskCount());
}

/// The finished manifest rendered as the rows CSV — the byte-identity
/// oracle for resume and cache tests.
[[nodiscard]] std::string manifestCsv(const std::string& manifestPath,
                                      const ServiceRequest& request) {
  const auto state = loadManifest(manifestPath);
  EXPECT_TRUE(state.has_value() && state->complete());
  const ServiceJob job(request);
  std::vector<ServiceTaskResult> results;
  for (std::size_t p = 0; p < job.plan().taskCount(); ++p) {
    const auto& record = state->records[p];
    EXPECT_TRUE(record.has_value()) << "position " << p;
    results.push_back({record->rounds, record->completed});
  }
  TextTable table({"n", "seed", "member", "rounds", "completed"});
  for (const SweepRow& row : job.assemble(results).rows) {
    table.row()
        .add(static_cast<std::uint64_t>(row.n))
        .add(row.instanceSeed)
        .add(row.member)
        .add(static_cast<std::uint64_t>(row.rounds))
        .add(row.completed ? "yes" : "no");
  }
  return table.renderCsv();
}

TEST_F(ServiceWorkerTest, ColdRunExecutesEverythingAndMatchesTheEngine) {
  const ServiceRequest request = makeRequest({6, 8, 10});
  const std::string manifest = path("cold.manifest");
  writeManifestFor(manifest, request);

  WorkerOptions options;
  options.manifestPath = manifest;
  const WorkerReport report = runManifestWorker(options);
  EXPECT_EQ(report.assigned, 6u);
  EXPECT_EQ(report.alreadyDone, 0u);
  EXPECT_EQ(report.cacheHits, 0u);
  EXPECT_EQ(report.executed, 6u);
  EXPECT_EQ(report.remaining, 0u);

  const auto state = loadManifest(manifest);
  ASSERT_TRUE(state.has_value());
  ASSERT_TRUE(state->complete());
  const ScenarioPlan plan(request.scenario);
  for (std::size_t p = 0; p < 6; ++p) {
    const SweepRow expected = plan.run(p);
    ASSERT_TRUE(state->records[p].has_value());
    EXPECT_EQ(state->records[p]->rounds, expected.rounds) << p;
    EXPECT_EQ(state->records[p]->completed, expected.completed) << p;
  }
}

TEST_F(ServiceWorkerTest, TruncatedManifestResumesByteIdentically) {
  const ServiceRequest request = makeRequest({6, 8, 10});
  const std::string reference = path("reference.manifest");
  writeManifestFor(reference, request);
  WorkerOptions cold;
  cold.manifestPath = reference;
  (void)runManifestWorker(cold);
  const std::string referenceCsv = manifestCsv(reference, request);

  // Truncate at a task boundary — header plus the first three records —
  // and add a torn tail, exactly what kill -9 mid-append leaves behind.
  const auto full = readFileIfExists(reference);
  ASSERT_TRUE(full.has_value());
  std::string truncated;
  std::size_t lines = 0;
  for (const char c : *full) {
    truncated += c;
    if (c == '\n' && ++lines == 6) break;  // 3 header + 3 done lines
  }
  ASSERT_EQ(lines, 6u);
  truncated += "done 4 12";  // torn: no completed field, no newline

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    const std::string manifest =
        path("resume_jobs" + std::to_string(jobs) + ".manifest");
    writeFileDurable(manifest, truncated);

    WorkerOptions resume;
    resume.manifestPath = manifest;
    resume.jobs = jobs;
    const WorkerReport report = runManifestWorker(resume);
    EXPECT_EQ(report.assigned, 6u) << "jobs=" << jobs;
    EXPECT_EQ(report.alreadyDone, 3u) << "jobs=" << jobs;
    EXPECT_EQ(report.executed, 3u) << "jobs=" << jobs;  // only the delta
    EXPECT_EQ(report.remaining, 0u) << "jobs=" << jobs;
    EXPECT_EQ(manifestCsv(manifest, request), referenceCsv)
        << "jobs=" << jobs;
  }
}

TEST_F(ServiceWorkerTest, MaxTasksStopsAtATaskBoundaryAndResumeFinishes) {
  const ServiceRequest request = makeRequest({6, 8, 10});
  const std::string manifest = path("budget.manifest");
  writeManifestFor(manifest, request);

  WorkerOptions budget;
  budget.manifestPath = manifest;
  budget.maxTasks = 2;
  const WorkerReport first = runManifestWorker(budget);
  EXPECT_EQ(first.executed, 2u);
  EXPECT_EQ(first.remaining, 4u);
  const auto mid = loadManifest(manifest);
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->doneCount, 2u);  // both checkpointed before returning

  WorkerOptions finish;
  finish.manifestPath = manifest;
  const WorkerReport second = runManifestWorker(finish);
  EXPECT_EQ(second.alreadyDone, 2u);
  EXPECT_EQ(second.executed, 4u);
  EXPECT_TRUE(loadManifest(manifest)->complete());
}

TEST_F(ServiceWorkerTest, DisjointRangesDrainOneManifest) {
  const ServiceRequest request = makeRequest({6, 8, 10});
  const std::string manifest = path("sharded.manifest");
  writeManifestFor(manifest, request);

  WorkerOptions low;
  low.manifestPath = manifest;
  low.rangeBegin = 0;
  low.rangeEnd = 3;
  WorkerOptions high;
  high.manifestPath = manifest;
  high.rangeBegin = 3;  // rangeEnd clamps to the task count
  const WorkerReport lowReport = runManifestWorker(low);
  const WorkerReport highReport = runManifestWorker(high);
  EXPECT_EQ(lowReport.assigned, 3u);
  EXPECT_EQ(highReport.assigned, 3u);
  EXPECT_EQ(lowReport.executed + highReport.executed, 6u);
  EXPECT_TRUE(loadManifest(manifest)->complete());

  // Sharded result == cold single-worker result.
  const std::string reference = path("sharded_reference.manifest");
  writeManifestFor(reference, request);
  WorkerOptions cold;
  cold.manifestPath = reference;
  (void)runManifestWorker(cold);
  EXPECT_EQ(manifestCsv(manifest, request), manifestCsv(reference, request));
}

TEST_F(ServiceWorkerTest, OverlappingSweepsExecuteOnlyTheDelta) {
  const ServiceRequest small = makeRequest({6, 8});       // 4 rows
  const ServiceRequest large = makeRequest({6, 8, 10, 12});  // 8 rows
  const std::string cacheDir = path("cache");

  // Cold CSV oracles, no cache involved.
  const std::string smallRef = path("small_ref.manifest");
  writeManifestFor(smallRef, small);
  WorkerOptions coldSmall;
  coldSmall.manifestPath = smallRef;
  (void)runManifestWorker(coldSmall);
  const std::string largeRef = path("large_ref.manifest");
  writeManifestFor(largeRef, large);
  WorkerOptions coldLarge;
  coldLarge.manifestPath = largeRef;
  (void)runManifestWorker(coldLarge);

  // First request: everything misses, everything lands in the cache.
  const std::string smallManifest = path("small.manifest");
  writeManifestFor(smallManifest, small);
  WorkerOptions first;
  first.manifestPath = smallManifest;
  first.cacheDir = cacheDir;
  const WorkerReport firstReport = runManifestWorker(first);
  EXPECT_EQ(firstReport.cacheHits, 0u);
  EXPECT_EQ(firstReport.executed, 4u);
  EXPECT_EQ(manifestCsv(smallManifest, small),
            manifestCsv(smallRef, small));

  // Second, overlapping request: exactly the non-overlapping delta runs.
  const std::string largeManifest = path("large.manifest");
  writeManifestFor(largeManifest, large);
  WorkerOptions second;
  second.manifestPath = largeManifest;
  second.cacheDir = cacheDir;
  const WorkerReport secondReport = runManifestWorker(second);
  EXPECT_EQ(secondReport.cacheHits, 4u);
  EXPECT_EQ(secondReport.executed, 4u);
  EXPECT_EQ(manifestCsv(largeManifest, large),
            manifestCsv(largeRef, large));

  // Resubmitting the first request is now pure cache: zero executions.
  const std::string again = path("small_again.manifest");
  writeManifestFor(again, small);
  WorkerOptions third;
  third.manifestPath = again;
  third.cacheDir = cacheDir;
  const WorkerReport thirdReport = runManifestWorker(third);
  EXPECT_EQ(thirdReport.cacheHits, 4u);
  EXPECT_EQ(thirdReport.executed, 0u);
  EXPECT_EQ(manifestCsv(again, small), manifestCsv(smallRef, small));
}

// The budget cuts the pending list before any cache lookup, so under
// maxTasks a partly cached range counts hits and executions together
// against the budget, in position order.
TEST_F(ServiceWorkerTest, BudgetCoversCacheHitsAndExecutionsAlike) {
  const ServiceRequest small = makeRequest({6, 8});          // 4 rows
  const ServiceRequest large = makeRequest({6, 8, 10, 12});  // 8 rows
  const std::string cacheDir = path("cache");

  const std::string reference = path("reference.manifest");
  writeManifestFor(reference, large);
  WorkerOptions cold;
  cold.manifestPath = reference;
  (void)runManifestWorker(cold);

  // Positions 0-3 (sizes 6 and 8) land in the cache.
  const std::string smallManifest = path("small.manifest");
  writeManifestFor(smallManifest, small);
  WorkerOptions warmup;
  warmup.manifestPath = smallManifest;
  warmup.cacheDir = cacheDir;
  ASSERT_EQ(runManifestWorker(warmup).executed, 4u);

  // Range [2, 8) is 6 pending tasks, 2 of them cached; the budget of 4
  // takes positions 2-5: the two cached ones and two misses.
  const std::string manifest = path("budget.manifest");
  writeManifestFor(manifest, large);
  WorkerOptions budget;
  budget.manifestPath = manifest;
  budget.cacheDir = cacheDir;
  budget.rangeBegin = 2;
  budget.maxTasks = 4;
  const WorkerReport first = runManifestWorker(budget);
  EXPECT_EQ(first.assigned, 6u);
  EXPECT_EQ(first.cacheHits + first.executed, 4u);
  EXPECT_EQ(first.cacheHits, 2u);
  EXPECT_EQ(first.executed, 2u);
  EXPECT_EQ(first.remaining, 2u);
  EXPECT_EQ(loadManifest(manifest)->doneCount, 4u);

  // An unrestricted run over the whole manifest drains the rest:
  // positions 0 and 1 from the cache, 6 and 7 executed.
  WorkerOptions finish;
  finish.manifestPath = manifest;
  finish.cacheDir = cacheDir;
  const WorkerReport second = runManifestWorker(finish);
  EXPECT_EQ(second.alreadyDone, 4u);
  EXPECT_EQ(second.cacheHits, 2u);
  EXPECT_EQ(second.executed, 2u);
  EXPECT_EQ(second.remaining, 0u);
  EXPECT_EQ(manifestCsv(manifest, large), manifestCsv(reference, large));
}

/// A rooted-tree request with 9 replicates per (size, member) cell of two
/// oblivious members and one adaptive one, plus two trivial beam tasks
/// (both sizes above beamMaxN).
[[nodiscard]] ServiceRequest makeReplicatedRequest() {
  ServiceRequest request;
  request.scenario.sizes = {5, 33};
  request.scenario.seedsPerSize = 9;
  request.scenario.masterSeed = 7;
  request.scenario.adversaries = {"static-path", "random-path",
                                  "heard-asc-path"};
  request.beamMaxN = 4;
  return request;
}

/// Every TASK record of a drained manifest equals the direct execution of
/// its position (ServiceJob::execute runs a row through ScenarioPlan::run).
void expectRecordsMatchScalarRows(const std::string& manifestPath,
                                  const ServiceRequest& request) {
  const auto state = loadManifest(manifestPath);
  ASSERT_TRUE(state.has_value() && state->complete());
  const ServiceJob job(request);
  for (std::size_t p = 0; p < state->taskCount; ++p) {
    const ServiceTaskResult expected = job.execute(p);
    EXPECT_EQ(state->records[p]->rounds, expected.rounds) << "position " << p;
    EXPECT_EQ(state->records[p]->completed, expected.completed)
        << "position " << p;
  }
}

TEST_F(ServiceWorkerTest, BatchedCellsSplitAcrossRangesAndResumes) {
  const ServiceRequest request = makeReplicatedRequest();
  const ServiceJobPlan plan = planServiceJob(request);
  ASSERT_EQ(plan.rowCount, 2u * 9u * 3u);

  // Two ranges that split the (n=5, static-path) cell: its positions are
  // 0, 3, …, 24, so [0, 13) takes five replicates and the rest four.
  const std::string sharded = path("sharded.manifest");
  writeManifestFor(sharded, request);
  WorkerOptions low;
  low.manifestPath = sharded;
  low.jobs = 8;
  low.rangeEnd = 13;
  WorkerOptions high = low;
  high.rangeBegin = 13;
  high.rangeEnd = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(runManifestWorker(low).executed, 13u);
  EXPECT_EQ(runManifestWorker(high).executed, plan.taskCount() - 13);
  expectRecordsMatchScalarRows(sharded, request);

  // A budget that stops mid-cell, then a resume that finishes the job.
  const std::string resumed = path("resumed.manifest");
  writeManifestFor(resumed, request);
  WorkerOptions budget;
  budget.manifestPath = resumed;
  budget.maxTasks = 20;
  const WorkerReport first = runManifestWorker(budget);
  EXPECT_EQ(first.executed, 20u);
  EXPECT_EQ(loadManifest(resumed)->doneCount, 20u);
  WorkerOptions finish;
  finish.manifestPath = resumed;
  const WorkerReport second = runManifestWorker(finish);
  EXPECT_EQ(second.alreadyDone, 20u);
  EXPECT_EQ(second.executed, plan.taskCount() - 20);
  expectRecordsMatchScalarRows(resumed, request);
}

TEST_F(ServiceWorkerTest, MissingManifestThrows) {
  WorkerOptions options;
  options.manifestPath = path("nope.manifest");
  EXPECT_THROW((void)runManifestWorker(options), std::runtime_error);
}

}  // namespace
}  // namespace dynbcast
