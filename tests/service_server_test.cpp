// End-to-end service loop, in-process: a server thread on a unix
// socket, real protocol traffic through the submit client, byte-equal
// results against the engine, warm-cache resubmission, and the error
// path. Sharded (multi-process) execution is covered by the
// service_smoke ctest; this suite keeps everything in one process so it
// runs under TSan.

#include <gtest/gtest.h>

#include <filesystem>
#include <sys/stat.h>

#include <chrono>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "src/engine/scenario.h"
#include "src/service/client.h"
#include "src/service/protocol.h"
#include "src/service/server.h"
#include "src/support/file_lock.h"
#include "src/support/socket.h"

namespace dynbcast {
namespace {

/// Blocks until the server socket exists (the listener binds before the
/// accept loop, so existence means connectable).
void awaitSocket(const std::string& path) {
  struct stat st {};
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (::stat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "server socket never appeared at " << path;
}

class ServiceServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "dynbcast_server_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);  // stale state from prior runs
    makeDirectories(dir_);
  }

  /// Serves exactly `requests` connections on a background thread.
  [[nodiscard]] std::thread startServer(std::size_t requests) {
    ServerOptions options;
    options.socketPath = dir_ + "/sock";
    options.stateDir = dir_ + "/state";
    options.workers = 0;  // in-process execution — TSan-visible
    options.jobsPerWorker = 2;
    options.maxRequests = requests;
    std::thread server([options] { (void)runServer(options); });
    awaitSocket(options.socketPath);
    return server;
  }

  std::string dir_;
};

TEST_F(ServiceServerTest, SubmitMatchesTheEngineAndResubmitIsAllCacheHits) {
  ServiceRequest request;
  request.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  request.scenario.sizes = {6, 8, 10};
  request.scenario.seedsPerSize = 2;
  request.scenario.masterSeed = 7;

  std::thread server = startServer(2);
  const std::string socket = dir_ + "/sock";

  std::ostringstream progress;
  const SubmitOutcome cold = submitRequest(socket, request, &progress);
  EXPECT_EQ(cold.jobId, requestJobId(request));
  EXPECT_EQ(cold.tasks, 6u);
  EXPECT_EQ(cold.resumed, 0u);
  EXPECT_EQ(cold.cacheHits, 0u);
  EXPECT_EQ(cold.executed, 6u);
  EXPECT_NE(progress.str().find("service: PROGRESS"), std::string::npos);

  EngineConfig config;
  config.jobs = 2;
  ExperimentEngine engine(config);
  const ScenarioResult direct = runScenario(request.scenario, engine);
  ASSERT_EQ(cold.rows.size(), direct.rows.size());
  for (std::size_t i = 0; i < cold.rows.size(); ++i) {
    EXPECT_EQ(cold.rows[i], direct.rows[i]) << "row " << i;
  }
  ASSERT_EQ(cold.instances.size(), direct.instances.size());
  for (std::size_t i = 0; i < cold.instances.size(); ++i) {
    EXPECT_EQ(cold.instances[i].portfolio.bestRounds,
              direct.instances[i].portfolio.bestRounds) << "instance " << i;
  }

  // Resubmission: the job is complete, so every task is a cache hit and
  // nothing executes — and the rows are still byte-identical.
  const SubmitOutcome warm = submitRequest(socket, request, nullptr);
  EXPECT_EQ(warm.cacheHits, 6u);
  EXPECT_EQ(warm.executed, 0u);
  for (std::size_t i = 0; i < warm.rows.size(); ++i) {
    EXPECT_EQ(warm.rows[i], direct.rows[i]) << "row " << i;
  }

  server.join();
}

TEST_F(ServiceServerTest, BeamTasksStreamBackForTheoremSweeps) {
  ServiceRequest request;  // default rooted-tree broadcast → beam pass
  request.scenario.sizes = {4, 6};
  request.beamMaxN = 4;  // search size 4, skip size 6
  request.beamWidth = 16;

  std::thread server = startServer(1);
  const SubmitOutcome outcome =
      submitRequest(dir_ + "/sock", request, nullptr);
  ASSERT_EQ(outcome.beamRounds.size(), 2u);
  EXPECT_GT(outcome.beamRounds[0], 0u);   // verified witness at n=4
  EXPECT_EQ(outcome.beamRounds[1], 0u);   // skipped above beamMaxN
  server.join();
}

TEST_F(ServiceServerTest, SingleProcessTheoremSweepCompletes) {
  // n = 1 is broadcast-complete at round 0: every row and the beam
  // witness report 0 rounds instead of tripping an assertion.
  ServiceRequest request;
  request.scenario.sizes = {1};

  std::thread server = startServer(1);
  const SubmitOutcome outcome =
      submitRequest(dir_ + "/sock", request, nullptr);
  server.join();

  ExperimentEngine engine;
  const ScenarioResult direct = runScenario(request.scenario, engine);
  ASSERT_EQ(outcome.rows.size(), direct.rows.size());
  for (std::size_t i = 0; i < outcome.rows.size(); ++i) {
    EXPECT_EQ(outcome.rows[i], direct.rows[i]) << "row " << i;
  }
  ASSERT_EQ(outcome.beamRounds.size(), 1u);
  EXPECT_EQ(outcome.beamRounds[0], 0u);
}

TEST_F(ServiceServerTest, ClientThatHangsUpMidJobDoesNotKillTheServer) {
  // Enough rows (greedy-delay and local-search among them) that the
  // server still has PROGRESS/TASK lines to write after the client is
  // gone: each of those writes must fail as EPIPE, not raise SIGPIPE.
  ServiceRequest request;
  request.scenario.sizes = {32, 48};
  request.scenario.seedsPerSize = 2;
  request.scenario.masterSeed = 5;
  request.beamMaxN = 4;  // both sizes skip the beam search

  std::thread server = startServer(2);
  const std::string socket = dir_ + "/sock";
  {
    LineChannel channel(connectUnix(socket));
    channel.writeLine(std::string(kServiceProtocol) + " SUBMIT");
    for (const std::string& line : encodeRequest(request)) {
      channel.writeLine(line);
    }
    channel.writeLine("");
    std::string greeting;
    ASSERT_TRUE(channel.readLine(&greeting));
    ASSERT_NE(greeting.find("ACCEPTED"), std::string::npos) << greeting;
  }  // hang up right after ACCEPTED

  // The server is still up: the same spec resubmitted completes, with
  // the engine's rows.
  const SubmitOutcome outcome = submitRequest(socket, request, nullptr);
  ExperimentEngine engine(EngineConfig{.jobs = 2});
  const ScenarioResult direct = runScenario(request.scenario, engine);
  ASSERT_EQ(outcome.rows.size(), direct.rows.size());
  for (std::size_t i = 0; i < outcome.rows.size(); ++i) {
    EXPECT_EQ(outcome.rows[i], direct.rows[i]) << "row " << i;
  }
  server.join();
}

TEST_F(ServiceServerTest, SpecErrorsComeBackAsServerErrors) {
  ServiceRequest request;
  request.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
  request.scenario.sizes = {6};
  // Graph models take no adversaries — the server's validateScenario
  // must reject this, and the client must surface its message.
  request.scenario.adversaries = {"freeze-path:depth=3"};

  std::thread server = startServer(1);
  try {
    (void)submitRequest(dir_ + "/sock", request, nullptr);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("server:"), std::string::npos)
        << error.what();
  }
  server.join();
}

TEST_F(ServiceServerTest, ValueErrorsLeaveNoJobState) {
  // Bad parameter values must fail the server's validation before it
  // computes a job id, so no manifest is ever written for them.
  ServiceRequest beamMember;
  beamMember.scenario.adversaries = {"beam:width=0"};
  beamMember.scenario.sizes = {4, 8};
  ServiceRequest restricted;
  restricted.scenario.dynamics = "restricted:class=k-leaf,k=3";
  restricted.scenario.sizes = {2, 8};
  ServiceRequest beamWidth;
  beamWidth.scenario.sizes = {4};
  beamWidth.beamWidth = 0;
  const std::pair<ServiceRequest, const char*> cases[] = {
      {beamMember, "adversary 'beam': beam config: width must be >= 1"},
      {restricted,
       "adversary 'k-leaf': k must satisfy 1 <= k <= n-1 (got k=3, n=2)"},
      {beamWidth, "beam config: width must be >= 1 (got 0)"},
  };

  std::thread server = startServer(std::size(cases));
  for (const auto& [request, message] : cases) {
    try {
      (void)submitRequest(dir_ + "/sock", request, nullptr);
      ADD_FAILURE() << message << ": accepted";
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("server:"), std::string::npos) << what;
      EXPECT_NE(what.find(message), std::string::npos) << what;
    }
  }
  server.join();

  for (const auto& file :
       std::filesystem::directory_iterator(dir_ + "/state")) {
    EXPECT_NE(file.path().extension(), ".manifest") << file.path();
  }
}

}  // namespace
}  // namespace dynbcast
