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

#include "src/service/job.h"
#include "src/service/protocol.h"

namespace dynbcast {

/// The job's assembled rows, instances and beam rounds (exactly what
/// ServiceJob::assemble makes of the same results in-process), plus the
/// server's accounting.
struct SubmitOutcome : ServiceJobResult {
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
/// std::runtime_error on connection failures, protocol violations (a
/// TASK line whose completed flag is not 0 or 1, a position reported
/// twice or never), or a server-reported ERROR.
[[nodiscard]] SubmitOutcome submitRequest(const std::string& socketPath,
                                          const ServiceRequest& request,
                                          std::ostream* progress);

}  // namespace dynbcast
