// The manifest worker: executes a job's unfinished tasks and checkpoints
// each one durably.
//
// This is the execution half of `dynbcast serve` — and a standalone
// subcommand (`dynbcast work --manifest=...`), which is exactly how the
// server shards a job across processes: it spawns N copies of the
// binary, each owning a disjoint position range of the same manifest.
// Workers share nothing but the filesystem: the manifest header tells
// them WHAT the job is (the canonical request string round-trips into a
// ServiceRequest, planned once into a ServiceJob), the `done` records
// tell them what's left, and every result is appended durably before
// the task counts as finished. A worker killed at any moment loses at
// most the tasks it had in flight; rerunning any worker over the same
// range is always safe and lands byte-identical records.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace dynbcast {

struct WorkerOptions {
  std::string manifestPath;
  /// Result-cache directory; empty disables the cache (manifest-only).
  std::string cacheDir;
  /// Worker threads for task execution (0 = one per core).
  std::size_t jobs = 1;
  /// Position range [rangeBegin, rangeEnd) this worker owns; the end is
  /// clamped to the manifest's task count.
  std::size_t rangeBegin = 0;
  std::size_t rangeEnd = std::numeric_limits<std::size_t>::max();
  /// Fault injection for checkpoint tests: process at most this many
  /// pending tasks, then return — the manifest state is then exactly
  /// what a worker killed at a task boundary leaves behind.
  std::size_t maxTasks = std::numeric_limits<std::size_t>::max();
};

struct WorkerReport {
  /// Tasks in this worker's range.
  std::size_t assigned = 0;
  /// Range tasks already recorded done when the worker started.
  std::size_t alreadyDone = 0;
  /// Pending tasks satisfied from the result cache (no execution).
  std::size_t cacheHits = 0;
  /// Pending tasks actually executed.
  std::size_t executed = 0;
  /// Range tasks still pending on return (nonzero only under maxTasks).
  std::size_t remaining = 0;
};

class ResultCache;
class ServiceJob;

/// The cache-pass step the server and workers share: on a cache hit for
/// task `position`'s key, appends its record to the manifest, so the
/// task is done without executing. Returns whether it hit.
[[nodiscard]] bool recordCachedTask(const ServiceJob& job,
                                    std::size_t position, ResultCache& cache,
                                    const std::string& manifestPath);

/// Runs the worker loop to completion (or the maxTasks budget): builds
/// the manifest's ServiceJob once, runs the cache pass over the pending
/// tasks of its range, then executes the rest. Throws
/// std::runtime_error on a missing/corrupt manifest and
/// std::invalid_argument when its request no longer decodes.
[[nodiscard]] WorkerReport runManifestWorker(const WorkerOptions& options);

}  // namespace dynbcast
