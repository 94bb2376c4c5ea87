#include "src/sim/gossip.h"

#include "src/sim/sim_backend.h"

namespace dynbcast {

GossipComparison runGossipComparison(
    std::size_t n,
    const std::function<RootedTree(const BroadcastSim&)>& nextTree,
    std::size_t maxRounds) {
  BroadcastSim sim(n);
  GossipComparison cmp;
  cmp.broadcastCompleted = sim.broadcastDone();
  const BroadcastRun gossip = runUntil(
      sim, Objective::kGossip, maxRounds, /*recordHistory=*/false,
      [&nextTree, &cmp](BroadcastSim& state) {
        state.applyTree(nextTree(state));
        if (!cmp.broadcastCompleted && state.broadcastDone()) {
          cmp.broadcastCompleted = true;
          cmp.broadcastRounds = state.round();
        }
      });
  cmp.gossipRounds = gossip.rounds;
  cmp.gossipCompleted = gossip.completed;
  if (!cmp.broadcastCompleted) cmp.broadcastRounds = gossip.rounds;
  return cmp;
}

std::size_t defaultGossipRoundCap(std::size_t n) { return 10 * n + 50; }

}  // namespace dynbcast
