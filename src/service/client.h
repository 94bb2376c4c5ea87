// The submit client: one request over the socket, results reassembled
// into engine-shaped rows.
//
// The wire only carries (position, rounds, completed) — row identity is
// recomputed locally through one ServiceJob, planned once the server
// has accepted the request, which is also the client-side proof that it
// asked for what it got. The outcome is
// byte-identical to running the scenario directly: same SweepRow fields,
// same order, same per-instance aggregates.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/engine/task_plan.h"
#include "src/service/protocol.h"

namespace dynbcast {

struct SubmitOutcome {
  /// Scenario rows, position order — matches runScenario(spec).rows
  /// (minus per-round history, which the service never records).
  std::vector<SweepRow> rows;
  /// Per-instance aggregates over `rows`, matching runScenario().
  std::vector<SweepInstance> instances;
  /// Verified beam-witness rounds per size index (empty unless the
  /// request has a beam pass; 0 = no witness at that size).
  std::vector<std::size_t> beamRounds;
  std::string jobId;
  /// Server-side accounting: total tasks, tasks already checkpointed
  /// when the job was (re)opened, tasks satisfied from the result
  /// cache, tasks actually executed for this submission.
  std::size_t tasks = 0;
  std::size_t resumed = 0;
  std::size_t cacheHits = 0;
  std::size_t executed = 0;
};

/// Submits `request` to the server at `socketPath` and blocks until the
/// job finishes. Server-side PROGRESS lines stream to `progress` when
/// non-null (one line each, prefixed "service: "). Throws
/// std::runtime_error on connection failures, protocol violations, or a
/// server-reported ERROR.
[[nodiscard]] SubmitOutcome submitRequest(const std::string& socketPath,
                                          const ServiceRequest& request,
                                          std::ostream* progress);

}  // namespace dynbcast
