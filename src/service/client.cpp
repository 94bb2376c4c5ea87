#include "src/service/client.h"

#include <optional>
#include <ostream>
#include <stdexcept>

#include "src/service/job.h"
#include "src/support/socket.h"

namespace dynbcast {

namespace {

[[nodiscard]] std::vector<std::string> splitWords(const std::string& line) {
  std::vector<std::string> words;
  std::string current;
  for (const char c : line) {
    if (c == ' ') {
      if (!current.empty()) words.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  if (!current.empty()) words.push_back(current);
  return words;
}

[[nodiscard]] std::size_t parseCount(const std::string& line,
                                     const std::string& token) {
  if (token.empty() ||
      token.find_first_not_of("0123456789") != std::string::npos) {
    throw std::runtime_error("submit: malformed server line '" + line + "'");
  }
  return static_cast<std::size_t>(std::stoull(token));
}

/// "key=value" → value, enforcing the key.
[[nodiscard]] std::string valueOf(const std::string& line,
                                  const std::string& word,
                                  const std::string& key) {
  if (word.rfind(key + "=", 0) != 0) {
    throw std::runtime_error("submit: malformed server line '" + line + "'");
  }
  return word.substr(key.size() + 1);
}

}  // namespace

SubmitOutcome submitRequest(const std::string& socketPath,
                            const ServiceRequest& request,
                            std::ostream* progress) {
  LineChannel channel(connectUnix(socketPath));
  channel.writeLine(std::string(kServiceProtocol) + " SUBMIT");
  for (const std::string& line : encodeRequest(request)) {
    channel.writeLine(line);
  }
  channel.writeLine("");

  // The job is planned only once the server has accepted the request,
  // so a request the server rejects surfaces as the server's ERROR.
  std::optional<ServiceJob> job;
  std::vector<ServiceTaskResult> results;
  std::vector<char> seen;
  SubmitOutcome outcome;
  bool done = false;

  std::string line;
  while (!done) {
    if (!channel.readLine(&line)) {
      throw std::runtime_error(
          "submit: server closed the connection mid-job");
    }
    const std::vector<std::string> words = splitWords(line);
    if (words.empty()) continue;
    if (words[0] == "ERROR") {
      throw std::runtime_error("server: " +
                               (line.size() > 6 ? line.substr(6) : line));
    }
    if (words[0] == kServiceProtocol) {
      // DYNBCAST/1 ACCEPTED job=<id> tasks=<T>
      if (words.size() != 4 || words[1] != "ACCEPTED") {
        throw std::runtime_error("submit: unexpected greeting '" + line +
                                 "'");
      }
      outcome.jobId = valueOf(line, words[2], "job");
      const std::size_t tasks =
          parseCount(line, valueOf(line, words[3], "tasks"));
      job.emplace(request);
      if (tasks != job->plan().taskCount()) {
        throw std::runtime_error(
            "submit: server plans " + std::to_string(tasks) +
            " tasks where the client plans " +
            std::to_string(job->plan().taskCount()) +
            " — client and server disagree about the request");
      }
      results.resize(tasks);
      seen.resize(tasks, 0);
      continue;
    }
    if (words[0] == "PROGRESS") {
      if (progress != nullptr) *progress << "service: " << line << '\n';
      continue;
    }
    if (words[0] == "TASK") {
      if (words.size() != 4) {
        throw std::runtime_error("submit: malformed server line '" + line +
                                 "'");
      }
      const std::size_t position = parseCount(line, words[1]);
      if (position >= results.size()) {
        throw std::runtime_error("submit: task position " +
                                 std::to_string(position) +
                                 " out of range");
      }
      results[position].rounds = parseCount(line, words[2]);
      results[position].completed = words[3] == "1";
      seen[position] = 1;
      continue;
    }
    if (words[0] == "STATS") {
      // STATS tasks=<T> resumed=<R> cache-hits=<H> executed=<E>
      if (words.size() != 5) {
        throw std::runtime_error("submit: malformed server line '" + line +
                                 "'");
      }
      outcome.tasks = parseCount(line, valueOf(line, words[1], "tasks"));
      outcome.resumed =
          parseCount(line, valueOf(line, words[2], "resumed"));
      outcome.cacheHits =
          parseCount(line, valueOf(line, words[3], "cache-hits"));
      outcome.executed =
          parseCount(line, valueOf(line, words[4], "executed"));
      continue;
    }
    if (words[0] == "DONE") {
      done = true;
      continue;
    }
    throw std::runtime_error("submit: unexpected server line '" + line +
                             "'");
  }

  if (!job.has_value()) {
    throw std::runtime_error("submit: server finished without ACCEPTED");
  }
  const ServiceJobPlan& plan = job->plan();
  for (std::size_t position = 0; position < plan.taskCount(); ++position) {
    if (seen[position] == 0) {
      throw std::runtime_error("submit: server never reported task " +
                               std::to_string(position));
    }
  }

  outcome.beamRounds.reserve(plan.beamCount);
  for (std::size_t i = 0; i < plan.beamCount; ++i) {
    outcome.beamRounds.push_back(results[plan.rowCount + i].rounds);
  }
  results.resize(plan.rowCount);
  outcome.rows = job->assembleRows(results);
  outcome.instances = job->scenario().aggregate(outcome.rows);
  return outcome;
}

}  // namespace dynbcast
