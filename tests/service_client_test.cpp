// The submit client against crafted server replies: a scripted peer on
// a unix socket answers one submission with fixed lines, so the client's
// checks of what the server says are exercised without a real server.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/service/client.h"
#include "src/service/protocol.h"
#include "src/support/file_lock.h"
#include "src/support/socket.h"

namespace dynbcast {
namespace {

class ServiceClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "dynbcast_client_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    makeDirectories(dir_);
  }

  /// Submits a one-task request to a peer that reads the submission and
  /// answers with `reply`, one line each.
  [[nodiscard]] SubmitOutcome submitAgainst(
      const std::vector<std::string>& reply) {
    const std::string socket = dir_ + "/sock";
    UnixListener listener(socket);
    std::thread peer([&listener, &reply] {
      try {
        LineChannel channel(listener.accept());
        std::string line;
        while (channel.readLine(&line) && !line.empty()) {
        }
        for (const std::string& out : reply) channel.writeLine(out);
      } catch (const std::runtime_error&) {
        // The client hung up after rejecting a line.
      }
    });
    ServiceRequest request;
    request.scenario.dynamics = "edge-markovian:p=0.3,q=0.3";
    request.scenario.sizes = {6};
    try {
      SubmitOutcome outcome = submitRequest(socket, request, nullptr);
      peer.join();
      return outcome;
    } catch (...) {
      peer.join();
      throw;
    }
  }

  std::string dir_;
};

[[nodiscard]] std::vector<std::string> replyWith(
    const std::vector<std::string>& tasks) {
  std::vector<std::string> reply = {
      std::string(kServiceProtocol) + " ACCEPTED job=0123456789abcdef tasks=1"};
  reply.insert(reply.end(), tasks.begin(), tasks.end());
  reply.push_back("STATS tasks=1 resumed=0 cache-hits=0 executed=1");
  reply.push_back("DONE");
  return reply;
}

TEST_F(ServiceClientTest, WellFormedReplyAssemblesTheRow) {
  const SubmitOutcome outcome = submitAgainst(replyWith({"TASK 0 5 1"}));
  ASSERT_EQ(outcome.rows.size(), 1u);
  EXPECT_EQ(outcome.rows[0].n, 6u);
  EXPECT_EQ(outcome.rows[0].rounds, 5u);
  EXPECT_TRUE(outcome.rows[0].completed);
  EXPECT_EQ(outcome.jobId, "0123456789abcdef");
  EXPECT_EQ(outcome.executed, 1u);
}

TEST_F(ServiceClientTest, CompletedFlagMustBeZeroOrOne) {
  for (const std::string flag : {"x", "2"}) {
    SCOPED_TRACE("flag " + flag);
    const std::string line = "TASK 0 5 " + flag;
    try {
      (void)submitAgainst(replyWith({line}));
      ADD_FAILURE() << "accepted '" << line << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "submit: malformed server line '" + line + "'");
    }
  }
}

TEST_F(ServiceClientTest, RepeatedTaskPositionIsRejected) {
  try {
    (void)submitAgainst(replyWith({"TASK 0 5 1", "TASK 0 7 0"}));
    ADD_FAILURE() << "accepted a repeated TASK position";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "submit: malformed server line 'TASK 0 7 0'");
  }
}

}  // namespace
}  // namespace dynbcast
