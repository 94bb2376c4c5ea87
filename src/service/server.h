// The dynbcast experiment server.
//
// `dynbcast serve` binds a unix-domain socket and turns protocol.h
// requests into checkpointed, cached, optionally multi-process
// execution:
//
//   request → canonical form → job id → one ServiceJob → manifest
//   (resume if one is already underway) → cache pre-pass (finished
//   cells cost nothing) → execution of the remaining delta → streamed
//   results, best-effort: a client that hangs up ends the stream, not
//   the job.
//
// Sharding: with workers=N the server spawns N copies of its own binary
// as `dynbcast work --manifest=...` processes, each owning a disjoint
// position range. Worker death is not an error — whatever a dead worker
// failed to checkpoint is simply still pending, so the server reloads
// the manifest and spawns the next wave until the job drains (a wave
// that makes zero progress falls back to in-process execution rather
// than spinning). With workers=0 the server executes in-process through
// the same worker loop.
//
// One request is served at a time; the queue is the socket backlog.
// That is deliberate: the unit of parallelism here is the task, not the
// connection, and serialized jobs keep the manifest/cache story simple
// to reason about.
#pragma once

#include <cstdint>
#include <string>

namespace dynbcast {

struct ServerOptions {
  /// Unix-domain socket path to listen on.
  std::string socketPath;
  /// Manifests and the result cache live here (created if missing).
  std::string stateDir;
  /// Worker processes per job; 0 = execute in-process.
  std::size_t workers = 0;
  /// --jobs handed to each worker (threads within the process).
  std::size_t jobsPerWorker = 1;
  /// Exit after serving this many connections; 0 = serve forever.
  std::size_t maxRequests = 0;
  /// Binary to exec for worker processes (the dynbcast binary itself);
  /// required when workers > 0.
  std::string workerBinary;
  /// Fault injection for resume tests: first-wave workers get
  /// --max-tasks=K, so they exit after K tasks as a killed worker
  /// would; later waves run unrestricted. 0 = off.
  std::size_t workerMaxTasks = 0;
};

/// Runs the accept loop. Returns 0 on orderly exit (maxRequests
/// served); throws std::runtime_error on socket/state-dir failures.
[[nodiscard]] int runServer(const ServerOptions& options);

}  // namespace dynbcast
