#include "tests/oracles/process_sim.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/support/rng.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {
namespace {

TEST(ProcessSimTest, InitialKnowledgeIsSelf) {
  ProcessSim sim(5);
  for (std::size_t id = 0; id < 5; ++id) {
    EXPECT_EQ(sim.process(id).knowledge, std::set<std::size_t>{id});
  }
  EXPECT_FALSE(sim.broadcastDone());
}

TEST(ProcessSimTest, MessagesFollowTreeEdges) {
  ProcessSim sim(4);
  sim.applyTree(makePath(4));
  // Path 0→1→2→3: three tree messages.
  EXPECT_EQ(sim.lastRoundMessages().size(), 3u);
  for (const Message& m : sim.lastRoundMessages()) {
    EXPECT_EQ(m.receiver, m.sender + 1);
  }
}

TEST(ProcessSimTest, PayloadSnapshotsStartOfRound) {
  ProcessSim sim(3);
  sim.applyTree(makePath(3));
  // Round 1 on 0→1→2: node 2 must receive {1}, not {0,1} — process 1's
  // message was composed before it learned about 0.
  EXPECT_EQ(sim.process(2).knowledge, (std::set<std::size_t>{1, 2}));
  EXPECT_EQ(sim.process(1).knowledge, (std::set<std::size_t>{0, 1}));
}

TEST(ProcessSimTest, StarBroadcastsInOneRound) {
  ProcessSim sim(5);
  sim.applyTree(makeStar(5, 3));
  EXPECT_TRUE(sim.broadcastDone());
  EXPECT_EQ(sim.knownToAll(), std::set<std::size_t>{3});
}

TEST(ProcessSimTest, PathBroadcastTakesNMinus1) {
  const std::size_t n = 7;
  ProcessSim sim(n);
  std::size_t rounds = 0;
  while (!sim.broadcastDone()) {
    sim.applyTree(makePath(n));
    ++rounds;
    ASSERT_LE(rounds, n);
  }
  EXPECT_EQ(rounds, n - 1);
  EXPECT_EQ(sim.knownToAll(), std::set<std::size_t>{0});
}

TEST(ProcessSimTest, KnowledgeMonotone) {
  Rng rng(5);
  ProcessSim sim(8);
  std::vector<std::set<std::size_t>> prev(8);
  for (std::size_t id = 0; id < 8; ++id) prev[id] = sim.process(id).knowledge;
  for (int r = 0; r < 20; ++r) {
    sim.applyTree(randomRootedTree(8, rng));
    for (std::size_t id = 0; id < 8; ++id) {
      const auto& now = sim.process(id).knowledge;
      EXPECT_TRUE(std::includes(now.begin(), now.end(), prev[id].begin(),
                                prev[id].end()));
      prev[id] = now;
    }
  }
}

TEST(ProcessSimTest, GossipDetectsFullKnowledge) {
  ProcessSim sim(3);
  // Alternate forward/backward paths until everyone knows everyone.
  const RootedTree fwd = makePath(3);
  const RootedTree bwd = makePath({2, 1, 0});
  int rounds = 0;
  while (!sim.gossipDone()) {
    sim.applyTree(rounds % 2 == 0 ? fwd : bwd);
    ++rounds;
    ASSERT_LE(rounds, 20);
  }
  EXPECT_TRUE(sim.broadcastDone());
}

TEST(ProcessSimTest, MessageCountAccumulates) {
  ProcessSim sim(6);
  sim.applyTree(makeStar(6, 0));   // 5 messages
  sim.applyTree(makePath(6));      // 5 messages
  EXPECT_EQ(sim.messagesDelivered(), 10u);
}

TEST(ProcessSimTest, LeafIdsNeverSpreadUnderStaticTree) {
  // The gossip-never-completes observation: under a static tree a leaf's
  // id stays known only to the leaf.
  ProcessSim sim(5);
  const RootedTree path = makePath(5);
  for (int r = 0; r < 10; ++r) sim.applyTree(path);
  for (std::size_t id = 0; id < 4; ++id) {
    EXPECT_EQ(sim.process(id).knowledge.count(4), 0u);
  }
  EXPECT_FALSE(sim.gossipDone());
}

}  // namespace
}  // namespace dynbcast
