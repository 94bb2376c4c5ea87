#include "src/adversary/adversary.h"

#include <cmath>

namespace dynbcast {

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

std::size_t defaultRoundCap(std::size_t n) {
  // ⌈(1+√2)n − 1⌉ plus slack; the theorem says no adversary can reach it.
  const double ub = std::ceil((1.0 + std::sqrt(2.0)) * static_cast<double>(n));
  return static_cast<std::size_t>(ub) + 16;
}

}  // namespace dynbcast
