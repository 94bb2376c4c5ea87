#include "src/analysis/evolution.h"

#include <algorithm>

#include "src/support/assert.h"

namespace dynbcast {

std::size_t potentialOf(const BroadcastSim& sim) {
  const std::size_t n = sim.processCount();
  std::size_t phi = 0;
  for (std::size_t y = 0; y < n; ++y) {
    phi += n - sim.heardCount(y);
  }
  return phi;
}

EvolutionSummary analyzeTrace(const SimTrace& trace) {
  const std::size_t n = trace.processCount();
  EvolutionSummary summary;
  summary.n = n;
  summary.rounds = trace.roundCount();
  summary.heardAllAt.assign(n, 0);
  summary.coveredAllAt.assign(n, 0);

  BroadcastSim sim(n);
  for (const RootedTree& tree : trace.trees()) {
    sim.applyTree(tree);
    summary.potential.push_back(potentialOf(sim));
    for (std::size_t y = 0; y < n; ++y) {
      if (summary.heardAllAt[y] == 0 && sim.heardCount(y) == n) {
        summary.heardAllAt[y] = sim.round();
      }
    }
    const DynBitset bc = sim.broadcasters();
    bc.forEachSet([&summary, &sim](std::size_t x) {
      if (summary.coveredAllAt[x] == 0) {
        summary.coveredAllAt[x] = sim.round();
      }
    });
    if (summary.broadcastRound == 0 && bc.any()) {
      summary.broadcastRound = sim.round();
    }
  }
  return summary;
}

std::size_t EvolutionSummary::minPotentialDrop() const {
  if (potential.empty()) return 0;
  std::size_t prev = n * (n - 1);  // Φ(0): everyone misses n−1 others
  std::size_t minDrop = prev;
  for (std::size_t r = 0; r < potential.size(); ++r) {
    // Past broadcast the adversary may legitimately stall (the game is
    // over); only pre-broadcast rounds must make progress.
    if (broadcastRound != 0 && r + 1 > broadcastRound) break;
    DYNBCAST_ASSERT(potential[r] <= prev);
    minDrop = std::min(minDrop, prev - potential[r]);
    prev = potential[r];
  }
  return minDrop;
}

}  // namespace dynbcast
