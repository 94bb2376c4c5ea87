#include "src/adversary/adversary.h"

#include <cmath>
#include <stdexcept>

#include "src/sim/batch_sim.h"
#include "src/support/assert.h"

namespace dynbcast {

const RootedTree& Adversary::obliviousTree(std::size_t) {
  throw std::logic_error("obliviousTree() called on adaptive adversary '" +
                         name() + "' (oblivious() is false)");
}

BroadcastRun runAdversary(std::size_t n, Adversary& adversary,
                          std::size_t maxRounds, bool recordHistory,
                          Objective objective) {
  adversary.reset();
  BroadcastSim sim(n);
  return runUntil(sim, objective, maxRounds, recordHistory,
                  [&adversary](BroadcastSim& state) {
                    state.applyTree(adversary.nextTree(state));
                  });
}

std::vector<BroadcastRun> runObliviousBatch(
    std::size_t n, const std::vector<Adversary*>& lanes,
    std::size_t maxRounds) {
  DYNBCAST_ASSERT(!lanes.empty());
  for (Adversary* lane : lanes) {
    DYNBCAST_ASSERT(lane != nullptr);
    DYNBCAST_ASSERT_MSG(lane->oblivious(),
                        "batched execution requires oblivious adversaries");
    lane->reset();
  }
  std::vector<BroadcastRun> runs(lanes.size());
  BatchBroadcastSim sim(n, lanes.size());
  const auto retire = [&sim, &runs] {
    for (const std::size_t origin : sim.retireBroadcastDone()) {
      runs[origin].rounds = sim.round();
      runs[origin].completed = true;
    }
  };
  retire();  // n == 1 completes at round 0, as in the scalar driver
  // References only — each adversary owns its returned tree until its
  // next obliviousTree() call, and all of this round's references are
  // consumed before any lane is asked again.
  std::vector<const RootedTree*> trees;
  trees.reserve(lanes.size());
  while (sim.width() > 0 && sim.round() < maxRounds) {
    trees.clear();
    for (std::size_t b = 0; b < sim.width(); ++b) {
      trees.push_back(&lanes[sim.originalLane(b)]->obliviousTree(sim.round()));
    }
    bool shared = true;
    for (std::size_t b = 1; shared && b < trees.size(); ++b) {
      shared = trees[b] == trees[0] || *trees[b] == *trees[0];
    }
    if (shared) {
      sim.applyTree(*trees[0]);
    } else {
      sim.applyTrees(trees);
    }
    retire();
  }
  // Lanes still live stalled at the cap — same report as the scalar
  // driver: rounds == maxRounds, not completed.
  for (std::size_t b = 0; b < sim.width(); ++b) {
    runs[sim.originalLane(b)].rounds = sim.round();
    runs[sim.originalLane(b)].completed = false;
  }
  return runs;
}

std::size_t defaultRoundCap(std::size_t n) {
  // ⌈(1+√2)n − 1⌉ plus slack; the theorem says no adversary can reach it.
  const double ub = std::ceil((1.0 + std::sqrt(2.0)) * static_cast<double>(n));
  return static_cast<std::size_t>(ub) + 16;
}

}  // namespace dynbcast
