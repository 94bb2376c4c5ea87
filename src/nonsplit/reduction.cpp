#include "src/nonsplit/reduction.h"

#include "src/graph/properties.h"
#include "src/sim/broadcast_sim.h"
#include "src/support/assert.h"

namespace dynbcast {

// The trees run through BroadcastSim: after round t its reachMatrix() is
// exactly G_1 ∘ … ∘ G_t, and each tree costs O(n²/64) words where a
// general boolean product would cost O(n³/64).
std::size_t nonsplitPrefixLength(const std::vector<RootedTree>& trees) {
  DYNBCAST_ASSERT(!trees.empty());
  BroadcastSim sim(trees.front().size());
  for (std::size_t i = 0; i < trees.size(); ++i) {
    sim.applyTree(trees[i]);
    if (isNonsplit(sim.reachMatrix())) return i + 1;
  }
  return trees.size() + 1;
}

}  // namespace dynbcast
