// Service job planning: a request, expanded into addressable tasks.
//
// A ServiceRequest expands into taskCount() independent tasks, indexed
// by position:
//
//   positions [0, rowCount)              scenario rows — exactly
//                                        src/engine/task_plan.h's grid
//   positions [rowCount, taskCount)      beam-witness tasks, one per
//                                        size (thm31 requests only)
//
// Every task is a pure function of (request, position): what it computes
// (ServiceJob::execute), its result-cache identity (ServiceJob::taskKey),
// and where its output lands (ServiceJob::assemble) are all derivable by
// any process independently. That is the whole distribution story — a
// manifest records positions, workers execute arbitrary subsets, and the
// merged results are byte-identical to a single-process run. A
// ServiceJob is the request planned once (its one ScenarioPlan); the
// server's cache pass, each worker, the client and `dynbcast sweep`
// build one per job. Row tasks run through ScenarioPlan::run, the row
// executor runScenario maps, and `dynbcast sweep` runs exactly the tasks
// a server would: one engine map of execute over every position, then
// assemble.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/task_plan.h"
#include "src/service/protocol.h"

namespace dynbcast {

/// The task grid of one request.
struct ServiceJobPlan {
  std::size_t rowCount = 0;
  /// One beam-witness task per size for thm31 requests, else 0. Sizes
  /// above beamMaxN still get a (trivial) task so the manifest covers
  /// every output cell uniformly.
  std::size_t beamCount = 0;

  [[nodiscard]] std::size_t taskCount() const noexcept {
    return rowCount + beamCount;
  }
};

/// Everything a request is checked against before it becomes a job:
/// validateScenario, plus the beam-witness config (scenarioBeamConfig of
/// its width) when the request has a beam pass. Throws
/// std::invalid_argument with the registry's or the beam's message;
/// `submit` runs it client-side and the server before it computes a job
/// id or writes a manifest.
void validateServiceRequest(const ServiceRequest& request);

/// What one task computed. For rows this mirrors SweepRow's
/// rounds/completed; for beam tasks, rounds is the verified witness
/// round count (0 = no witness: the size is above beamMaxN or
/// verification failed) and completed is always true.
struct ServiceTaskResult {
  std::size_t rounds = 0;
  bool completed = false;
};

/// A job's task results in the shape the sweep reports print.
struct ServiceJobResult {
  /// Scenario rows, position order — runScenario()'s rows, minus
  /// per-round history, which a job never records.
  std::vector<SweepRow> rows;
  /// Per-instance aggregates over `rows`, matching runScenario().
  std::vector<SweepInstance> instances;
  /// Verified beam-witness rounds per size index (empty unless the
  /// request has a beam pass; 0 = no witness at that size).
  std::vector<std::size_t> beamRounds;
};

/// One request's job, planned once. The constructor throws
/// std::invalid_argument on unknown names; tasks may only be keyed or
/// executed once the request satisfies validateServiceRequest().
class ServiceJob {
 public:
  explicit ServiceJob(const ServiceRequest& request);

  [[nodiscard]] const ServiceJobPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const ScenarioPlan& scenario() const noexcept {
    return scenario_;
  }

  /// Task `position`'s result-cache key: every input that determines
  /// its output, spelled canonically — and nothing that doesn't, so
  /// overlapping requests share cache cells. Row keys resolve the
  /// effective backend (dense below the sparse/dense mirror threshold,
  /// where rows are backend-invariant) rather than echoing the request's
  /// auto/dense/sparse choice. Beam keys carry a searched=0|1 flag so a
  /// size skipped by one request's beamMaxN can never satisfy another
  /// request that actually searches it.
  [[nodiscard]] std::string taskKey(std::size_t position) const;

  /// Executes task `position` on the calling thread.
  [[nodiscard]] ServiceTaskResult execute(std::size_t position) const;

  /// Turns every task's result (indexed by position, size taskCount)
  /// into rows, instances and beam rounds: the rows byte-identical to
  /// runScenario()'s, the beam rounds runScenarioBeamTask's per size.
  [[nodiscard]] ServiceJobResult assemble(
      const std::vector<ServiceTaskResult>& results) const;

 private:
  ScenarioPlan scenario_;
  ServiceJobPlan plan_;
  std::size_t beamMaxN_;
  std::size_t beamWidth_;
  /// "row/1 obj=… dyn=… cap=…": every row key's job-wide prefix.
  std::string rowKeyPrefix_;
};

/// Per-call forwards over a fresh ServiceJob, for callers outside the
/// library; a loop over positions builds one ServiceJob instead.
[[nodiscard]] ServiceJobPlan planServiceJob(const ServiceRequest& request);
[[nodiscard]] std::string serviceTaskKey(const ServiceRequest& request,
                                         std::size_t position);
[[nodiscard]] ServiceTaskResult executeServiceTask(
    const ServiceRequest& request, std::size_t position);

}  // namespace dynbcast
