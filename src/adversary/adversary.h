// Adversary interface for the broadcast game (paper Definition 2.3).
//
// The broadcast time t*(T_n) is the value of a one-player game: in each
// round the adversary — with full knowledge of the current heard-of state
// — picks any rooted tree on [n], trying to postpone the first round in
// which some process has been heard by everyone. Protocol processes have
// no choices (they always forward everything), so maximizing adversaries
// are the only strategic agents in the model.
//
// Implementations may be oblivious (ignore the state) or adaptive.
#pragma once

#include <memory>
#include <string>

#include "src/sim/broadcast_sim.h"
#include "src/sim/sim_backend.h"
#include "src/tree/rooted_tree.h"

namespace dynbcast {

class Adversary {
 public:
  virtual ~Adversary() = default;

  Adversary() = default;
  Adversary(const Adversary&) = delete;
  Adversary& operator=(const Adversary&) = delete;

  /// The tree for round state.round() + 1. Must have state.processCount()
  /// nodes. Adaptive adversaries read the heard-of state; oblivious ones
  /// only the round number.
  [[nodiscard]] virtual RootedTree nextTree(const BroadcastSim& state) = 0;

  /// Stable display name, e.g. "static-path" or "greedy-delay".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Re-arms the adversary for a fresh run (resets internal RNG state to
  /// the constructed seed and clears any per-run memory).
  virtual void reset() {}
};

/// Runs `adversary` on a fresh BroadcastSim through runUntil until the
/// objective holds or `maxRounds` is reached; resets the adversary first.
/// For gossip use defaultGossipRoundCap(n), not defaultRoundCap(n): the
/// latter encodes the paper's broadcast bound, which gossip may exceed.
[[nodiscard]] BroadcastRun runAdversary(
    std::size_t n, Adversary& adversary, std::size_t maxRounds,
    bool recordHistory = false, Objective objective = Objective::kBroadcast);

/// Default round cap used by drivers: comfortably above the paper's upper
/// bound ⌈(1+√2)n−1⌉, so hitting it means something is wrong (and tests
/// treat it as a Theorem 3.1 violation).
[[nodiscard]] std::size_t defaultRoundCap(std::size_t n);

}  // namespace dynbcast
