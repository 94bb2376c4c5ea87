#include "src/service/server.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/service/cache.h"
#include "src/service/job.h"
#include "src/service/manifest.h"
#include "src/service/protocol.h"
#include "src/service/worker.h"
#include "src/support/file_lock.h"
#include "src/support/socket.h"

namespace dynbcast {

namespace {

struct WorkerProcess {
  pid_t pid = -1;
};

/// fork+exec one `dynbcast work` process over [begin, end).
[[nodiscard]] WorkerProcess spawnWorker(const ServerOptions& options,
                                        const std::string& manifestPath,
                                        std::size_t begin, std::size_t end,
                                        std::size_t maxTasks) {
  std::vector<std::string> args;
  args.push_back(options.workerBinary);
  args.push_back("work");
  args.push_back("--manifest=" + manifestPath);
  args.push_back("--cache=" + options.stateDir + "/cache");
  args.push_back("--jobs=" + std::to_string(options.jobsPerWorker));
  args.push_back("--range=" + std::to_string(begin) + ":" +
                 std::to_string(end));
  if (maxTasks != 0) {
    args.push_back("--max-tasks=" + std::to_string(maxTasks));
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    // Exec failure in the child: nothing sane to do but exit loudly;
    // the parent sees a nonzero status and treats the range as pending.
    ::_exit(127);
  }
  return WorkerProcess{pid};
}

void reapWorkers(const std::vector<WorkerProcess>& workers) {
  for (const WorkerProcess& worker : workers) {
    int status = 0;
    while (::waitpid(worker.pid, &status, 0) < 0) {
      if (errno != EINTR) break;
    }
    // Exit status is advisory only — the manifest is the truth about
    // what got done, so a crashed worker needs no special handling.
  }
}

/// Splits `pending` into up to `shards` contiguous groups and spawns one
/// worker per group. Groups cover disjoint position ranges because the
/// pending list is ascending.
void runWorkerWave(const ServerOptions& options,
                   const std::string& manifestPath,
                   const std::vector<std::size_t>& pending,
                   std::size_t maxTasks) {
  const std::size_t shards =
      options.workers < pending.size() ? options.workers : pending.size();
  std::vector<WorkerProcess> workers;
  workers.reserve(shards);
  const std::size_t chunk = (pending.size() + shards - 1) / shards;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t lo = s * chunk;
    const std::size_t hi =
        (s + 1) * chunk < pending.size() ? (s + 1) * chunk : pending.size();
    if (lo >= hi) break;
    workers.push_back(spawnWorker(options, manifestPath, pending[lo],
                                  pending[hi - 1] + 1, maxTasks));
  }
  reapWorkers(workers);
}

void handleRequest(const ServerOptions& options, LineChannel& channel,
                   const ServiceRequest& request) {
  validateServiceRequest(request);
  const std::string canonical = canonicalRequestString(request);
  const std::string jobId = requestJobId(request);
  const std::string manifestPath =
      options.stateDir + "/job-" + jobId + ".manifest";
  const ServiceJobPlan plan = planServiceJob(request);

  std::size_t resumed = 0;
  if (std::optional<ManifestState> existing = loadManifest(manifestPath)) {
    if (existing->canonicalRequest != canonical) {
      channel.writeLine("ERROR job id collision at " + manifestPath +
                        "; remove the stale manifest");
      return;
    }
    if (existing->complete()) {
      // A finished prior submission: its results live in the cache, so
      // start a fresh manifest and let the pre-pass below reclaim them
      // as cache hits (or re-execute if the cache was cleared).
      initManifest(manifestPath, canonical, plan.taskCount());
    } else {
      resumed = existing->doneCount;
    }
  } else {
    initManifest(manifestPath, canonical, plan.taskCount());
  }

  channel.writeLine(std::string(kServiceProtocol) + " ACCEPTED job=" +
                    jobId + " tasks=" + std::to_string(plan.taskCount()));

  // Cache pre-pass: every pending task already in the result cache gets
  // its record appended without executing anything — overlapping
  // requests pay only for their delta.
  ResultCache cache(options.stateDir + "/cache");
  std::size_t cacheHits = 0;
  {
    const std::optional<ManifestState> state = loadManifest(manifestPath);
    for (const std::size_t position :
         state->pending(0, plan.taskCount())) {
      const auto hit = cache.get(serviceTaskKey(request, position));
      if (!hit.has_value()) continue;
      appendTaskRecord(manifestPath,
                       {position, hit->rounds, hit->completed});
      cacheHits += 1;
    }
  }
  channel.writeLine("PROGRESS done=" +
                    std::to_string(resumed + cacheHits) + " total=" +
                    std::to_string(plan.taskCount()));

  // Execute the remainder in waves until the manifest drains. Worker
  // death only means its unfinished range stays pending; a wave with
  // zero progress falls back to in-process execution.
  std::size_t waveMaxTasks = options.workerMaxTasks;
  bool inProcess = options.workers == 0;
  for (;;) {
    const std::optional<ManifestState> state = loadManifest(manifestPath);
    const std::vector<std::size_t> pending =
        state->pending(0, plan.taskCount());
    if (pending.empty()) break;
    if (inProcess) {
      WorkerOptions work;
      work.manifestPath = manifestPath;
      work.cacheDir = options.stateDir + "/cache";
      work.jobs = options.jobsPerWorker;
      (void)runManifestWorker(work);
    } else {
      runWorkerWave(options, manifestPath, pending, waveMaxTasks);
      waveMaxTasks = 0;  // fault injection applies to the first wave only
      const std::optional<ManifestState> after = loadManifest(manifestPath);
      if (after->doneCount == state->doneCount) inProcess = true;
    }
    const std::optional<ManifestState> after = loadManifest(manifestPath);
    channel.writeLine("PROGRESS done=" + std::to_string(after->doneCount) +
                      " total=" + std::to_string(plan.taskCount()));
  }

  const std::optional<ManifestState> finalState = loadManifest(manifestPath);
  if (!finalState->complete()) {
    channel.writeLine("ERROR job did not drain");
    return;
  }
  for (std::size_t position = 0; position < plan.taskCount(); ++position) {
    const TaskRecord& record = *finalState->records[position];
    channel.writeLine("TASK " + std::to_string(position) + ' ' +
                      std::to_string(record.rounds) + ' ' +
                      (record.completed ? "1" : "0"));
  }
  const std::size_t executed = plan.taskCount() - resumed - cacheHits;
  channel.writeLine("STATS tasks=" + std::to_string(plan.taskCount()) +
                    " resumed=" + std::to_string(resumed) + " cache-hits=" +
                    std::to_string(cacheHits) + " executed=" +
                    std::to_string(executed));
  channel.writeLine("DONE");
}

void handleConnection(const ServerOptions& options, OwnedFd fd) {
  LineChannel channel(std::move(fd));
  try {
    std::string line;
    if (!channel.readLine(&line)) return;  // peer connected and left
    if (line != std::string(kServiceProtocol) + " SUBMIT") {
      channel.writeLine(std::string("ERROR expected '") + kServiceProtocol +
                        " SUBMIT', got '" + line + "'");
      return;
    }
    std::vector<std::string> lines;
    while (channel.readLine(&line) && !line.empty()) {
      lines.push_back(line);
    }
    handleRequest(options, channel, decodeRequest(lines));
  } catch (const std::exception& e) {
    // Both user errors (bad specs) and I/O failures surface to the
    // client; the server stays up for the next request.
    try {
      channel.writeLine(std::string("ERROR ") + e.what());
    } catch (const std::exception&) {
      // The peer is gone; nothing left to report to.
    }
  }
}

}  // namespace

int runServer(const ServerOptions& options) {
  if (options.workers > 0 && options.workerBinary.empty()) {
    throw std::runtime_error("serve: workers > 0 requires a worker binary");
  }
  makeDirectories(options.stateDir);
  UnixListener listener(options.socketPath);
  for (std::size_t served = 0;
       options.maxRequests == 0 || served < options.maxRequests; ++served) {
    handleConnection(options, listener.accept());
  }
  return 0;
}

}  // namespace dynbcast
