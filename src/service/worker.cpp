#include "src/service/worker.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/engine/experiment_engine.h"
#include "src/service/cache.h"
#include "src/service/job.h"
#include "src/service/manifest.h"
#include "src/service/protocol.h"

namespace dynbcast {

bool recordCachedTask(const ServiceJob& job, std::size_t position,
                      ResultCache& cache, const std::string& manifestPath) {
  const auto hit = cache.get(job.taskKey(position));
  if (!hit.has_value()) return false;
  appendTaskRecord(manifestPath, {position, hit->rounds, hit->completed});
  return true;
}

WorkerReport runManifestWorker(const WorkerOptions& options) {
  const std::optional<ManifestState> manifest =
      loadManifest(options.manifestPath);
  if (!manifest.has_value()) {
    throw std::runtime_error("worker: no manifest at " +
                             options.manifestPath);
  }
  const ServiceJob job(decodeCanonicalRequest(manifest->canonicalRequest));
  const ServiceJobPlan& plan = job.plan();
  if (plan.taskCount() != manifest->taskCount) {
    throw std::runtime_error(
        "worker: manifest " + options.manifestPath + " declares " +
        std::to_string(manifest->taskCount) + " tasks but its request " +
        "plans to " + std::to_string(plan.taskCount()));
  }

  WorkerReport report;
  const std::size_t rangeEnd = options.rangeEnd < manifest->taskCount
                                   ? options.rangeEnd
                                   : manifest->taskCount;
  const std::size_t rangeBegin =
      options.rangeBegin < rangeEnd ? options.rangeBegin : rangeEnd;
  report.assigned = rangeEnd - rangeBegin;

  std::vector<std::size_t> pending =
      manifest->pending(rangeBegin, rangeEnd);
  report.alreadyDone = report.assigned - pending.size();
  if (pending.size() > options.maxTasks) {
    report.remaining = pending.size() - options.maxTasks;
    pending.resize(options.maxTasks);
  }
  if (pending.empty()) return report;

  ResultCache cache(options.cacheDir);
  EngineConfig config;
  config.jobs = options.jobs;
  ExperimentEngine engine(config);

  // One pool task per pending position, rows and beam tasks alike: a
  // cache hit is recorded as is, a miss executes and checkpoints. The
  // durability contract: a task is "done" once its record is fsynced —
  // and only then. The seeds map() derives go unused — every task
  // derives its own from (request, position), which is what makes
  // re-execution by any process byte-identical.
  const std::vector<char> hits = engine.map<char>(
      pending.size(), 0, [&](std::size_t index, std::uint64_t) -> char {
        const std::size_t position = pending[index];
        if (recordCachedTask(job, position, cache, options.manifestPath)) {
          return 1;
        }
        const ServiceTaskResult result = job.execute(position);
        cache.put(job.taskKey(position), {result.rounds, result.completed});
        appendTaskRecord(options.manifestPath,
                         {position, result.rounds, result.completed});
        return 0;
      });
  report.cacheHits = static_cast<std::size_t>(
      std::count(hits.begin(), hits.end(), char{1}));
  report.executed = pending.size() - report.cacheHits;
  return report;
}

}  // namespace dynbcast
