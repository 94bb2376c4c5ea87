#include "src/service/server.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/service/cache.h"
#include "src/service/job.h"
#include "src/service/manifest.h"
#include "src/service/protocol.h"
#include "src/service/worker.h"
#include "src/support/file_lock.h"
#include "src/support/socket.h"
#include "src/support/thread_pool.h"

namespace dynbcast {

namespace {

/// fork+exec one `dynbcast work` process over [begin, end).
[[nodiscard]] pid_t spawnWorker(const ServerOptions& options,
                                const std::string& manifestPath,
                                std::size_t begin, std::size_t end,
                                std::size_t maxTasks) {
  std::vector<std::string> args = {
      options.workerBinary,
      "work",
      "--manifest=" + manifestPath,
      "--cache=" + options.stateDir + "/cache",
      "--jobs=" + std::to_string(options.jobsPerWorker),
      "--range=" + std::to_string(begin) + ":" + std::to_string(end)};
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
  return pid;
}

/// Splits `pending` into up to `shards` contiguous groups, spawns one
/// worker per group and reaps them all. Groups cover disjoint position
/// ranges because the pending list is ascending.
void runWorkerWave(const ServerOptions& options,
                   const std::string& manifestPath,
                   const std::vector<std::size_t>& pending,
                   std::size_t maxTasks) {
  const std::size_t shards =
      options.workers < pending.size() ? options.workers : pending.size();
  std::vector<pid_t> workers;
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
  for (const pid_t worker : workers) {
    int status = 0;
    while (::waitpid(worker, &status, 0) < 0 && errno == EINTR) {
    }
    // Exit status is advisory only — the manifest is the truth about
    // what got done, so a crashed worker needs no special handling.
  }
}

void handleRequest(const ServerOptions& options, LineChannel& channel,
                   const ServiceRequest& request) {
  validateServiceRequest(request);
  const std::string canonical = canonicalRequestString(request);
  const std::string jobId = canonicalJobId(canonical);
  const std::string manifestPath =
      options.stateDir + "/job-" + jobId + ".manifest";
  const ServiceJob job(request);
  const std::size_t taskCount = job.plan().taskCount();

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
      initManifest(manifestPath, canonical, taskCount);
    } else {
      resumed = existing->doneCount;
    }
  } else {
    initManifest(manifestPath, canonical, taskCount);
  }

  channel.writeLine(std::string(kServiceProtocol) + " ACCEPTED job=" +
                    jobId + " tasks=" + std::to_string(taskCount));

  // Once accepted, the job drains into its manifest and cache whether or
  // not the client still listens: a write to a peer that hung up (EPIPE)
  // ends the reporting, not the job.
  bool listening = true;
  const auto report = [&](const std::string& line) {
    if (!listening) return;
    try {
      channel.writeLine(line);
    } catch (const std::runtime_error&) {
      listening = false;
    }
  };

  // Cache pre-pass: every pending task already in the result cache gets
  // its record appended without executing anything — overlapping
  // requests pay only for their delta.
  ResultCache cache(options.stateDir + "/cache");
  std::size_t cacheHits = 0;
  for (const std::size_t position :
       loadManifest(manifestPath)->pending(0, taskCount)) {
    if (recordCachedTask(job, position, cache, manifestPath)) cacheHits += 1;
  }
  report("PROGRESS done=" + std::to_string(resumed + cacheHits) +
         " total=" + std::to_string(taskCount));

  // Execute the remainder in waves until the manifest drains. Worker
  // death only means its unfinished range stays pending; a wave with
  // zero progress falls back to in-process execution.
  std::size_t waveMaxTasks = options.workerMaxTasks;
  bool inProcess = options.workers == 0;
  // One load per wave: each wave's `after` is the next wave's `state`.
  std::optional<ManifestState> state = loadManifest(manifestPath);
  for (;;) {
    const std::vector<std::size_t> pending = state->pending(0, taskCount);
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
    }
    std::optional<ManifestState> after = loadManifest(manifestPath);
    if (after->doneCount == state->doneCount) inProcess = true;
    state = std::move(after);
    report("PROGRESS done=" + std::to_string(state->doneCount) +
           " total=" + std::to_string(taskCount));
  }

  if (!state->complete()) {
    report("ERROR job did not drain");
    return;
  }
  for (std::size_t position = 0; position < taskCount; ++position) {
    const TaskRecord& record = *state->records[position];
    report("TASK " + std::to_string(position) + ' ' +
           std::to_string(record.rounds) + ' ' +
           (record.completed ? "1" : "0"));
  }
  const std::size_t executed = taskCount - resumed - cacheHits;
  report("STATS tasks=" + std::to_string(taskCount) +
         " resumed=" + std::to_string(resumed) + " cache-hits=" +
         std::to_string(cacheHits) + " executed=" +
         std::to_string(executed));
  report("DONE");
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
  // Every job would start this many threads; refuse before listening.
  if (options.jobsPerWorker > kMaxPoolThreads) {
    throw std::invalid_argument(
        "serve: --jobs=" + std::to_string(options.jobsPerWorker) +
        " exceeds kMaxPoolThreads = " + std::to_string(kMaxPoolThreads));
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
