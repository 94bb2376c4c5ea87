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

WorkerReport runManifestWorker(const WorkerOptions& options) {
  const std::optional<ManifestState> manifest =
      loadManifest(options.manifestPath);
  if (!manifest.has_value()) {
    throw std::runtime_error("worker: no manifest at " +
                             options.manifestPath);
  }
  const ServiceRequest request =
      decodeCanonicalRequest(manifest->canonicalRequest);
  const ServiceJobPlan plan = planServiceJob(request);
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

  // Cache pass: a pending task whose key is cached is recorded without
  // executing anything. The seeds map() derives are unused here and
  // below — every task derives its own from (request, position), which
  // is what makes re-execution by any process byte-identical.
  std::vector<std::string> keys(pending.size());
  const std::vector<char> hits = engine.map<char>(
      pending.size(), 0, [&](std::size_t index, std::uint64_t) -> char {
        keys[index] = serviceTaskKey(request, pending[index]);
        const auto hit = cache.get(keys[index]);
        if (!hit.has_value()) return 0;
        appendTaskRecord(options.manifestPath,
                         {pending[index], hit->rounds, hit->completed});
        return 1;
      });

  // The durability contract: a task is "done" once its record is
  // fsynced — and only then.
  const auto finish = [&](std::size_t position, std::size_t rounds,
                          bool completed) {
    const auto index = static_cast<std::size_t>(
        std::lower_bound(pending.begin(), pending.end(), position) -
        pending.begin());
    cache.put(keys[index], {rounds, completed});
    appendTaskRecord(options.manifestPath, {position, rounds, completed});
  };
  std::vector<std::size_t> rows;
  std::vector<std::size_t> beams;
  for (std::size_t index = 0; index < pending.size(); ++index) {
    if (hits[index] != 0) continue;
    (pending[index] < plan.rowCount ? rows : beams).push_back(pending[index]);
  }
  report.cacheHits = pending.size() - rows.size() - beams.size();
  report.executed = rows.size() + beams.size();

  // Row tasks run on the scenario executor, exactly as runScenario runs
  // them, and beam tasks one per pool task.
  runScenarioPositions(request.scenario, rows, engine,
                       [&](std::size_t position, SweepRow row) {
                         finish(position, row.rounds, row.completed);
                       });
  (void)engine.map<char>(
      beams.size(), 0, [&](std::size_t index, std::uint64_t) -> char {
        const ServiceTaskResult result =
            executeServiceTask(request, beams[index]);
        finish(beams[index], result.rounds, result.completed);
        return 0;
      });
  return report;
}

}  // namespace dynbcast
