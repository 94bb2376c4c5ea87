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
// (executeServiceTask), its result-cache identity (serviceTaskKey), and
// where its output lands (assembleServiceRows) are all derivable by any
// process independently. That is the whole distribution story — a
// manifest records positions, workers execute arbitrary subsets, and the
// merged results are byte-identical to a single-process run. Workers run
// their row tasks through runScenarioPositions, the executor runScenario
// uses, so served rows batch exactly as `dynbcast sweep` rows do.
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

[[nodiscard]] ServiceJobPlan planServiceJob(const ServiceRequest& request);

/// What one task computed. For rows this mirrors SweepRow's
/// rounds/completed; for beam tasks, rounds is the verified witness
/// round count (0 = no witness: the size is above beamMaxN or
/// verification failed) and completed is always true.
struct ServiceTaskResult {
  std::size_t rounds = 0;
  bool completed = false;
};

/// The task's result-cache key: every input that determines its output,
/// spelled canonically — and nothing that doesn't, so overlapping
/// requests share cache cells. Row keys resolve the effective backend
/// (dense below the sparse/dense mirror threshold, where rows are
/// backend-invariant) rather than echoing the request's auto/dense/
/// sparse choice. Beam keys carry a searched=0|1 flag so a size skipped
/// by one request's beamMaxN can never satisfy another request that
/// actually searches it.
[[nodiscard]] std::string serviceTaskKey(const ServiceRequest& request,
                                         std::size_t position);

/// Executes task `position` on the calling thread. The scenario must
/// already satisfy validateScenario().
[[nodiscard]] ServiceTaskResult executeServiceTask(
    const ServiceRequest& request, std::size_t position);

/// Reconstructs full SweepRows from the row-range results (indexed by
/// position, size rowCount) — byte-identical to runScenario()'s rows,
/// minus per-round history, which the service never records.
[[nodiscard]] std::vector<SweepRow> assembleServiceRows(
    const ScenarioSpec& spec,
    const std::vector<ServiceTaskResult>& rowResults);

}  // namespace dynbcast
