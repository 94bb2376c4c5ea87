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
#include <vector>

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

  /// True when the tree sequence never depends on the heard-of state —
  /// the precondition for batched lockstep execution, where no live
  /// simulator exists to show an adversary. Oblivious implementations
  /// override this AND obliviousTree(); everything adaptive keeps the
  /// default.
  [[nodiscard]] virtual bool oblivious() const noexcept { return false; }

  /// The tree for round `round` + 1 of an oblivious adversary, with no
  /// simulator in sight. Callers must request rounds sequentially from
  /// reset() (round 0, 1, 2, …): randomized adversaries draw from their
  /// RNG per call, and the sequential discipline keeps that stream
  /// identical to what nextTree() would have consumed — which is what
  /// makes batched runs byte-identical to scalar ones. Returns a
  /// reference (static adversaries hand out their stored tree without a
  /// per-round deep copy — RootedTree copies allocate per node, which
  /// would dwarf a batched round); it stays valid until the next
  /// obliviousTree()/reset() call on this adversary. Throws
  /// std::logic_error on adaptive adversaries (oblivious() == false).
  [[nodiscard]] virtual const RootedTree& obliviousTree(std::size_t round);

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

/// Runs every adversary in `lanes` (all oblivious, all on n processes)
/// through one lockstep BatchBroadcastSim: trees are drawn per lane per
/// round via obliviousTree(), applied across the whole batch in one fused
/// pass (a shared contiguous pass when all live lanes picked the same
/// tree), and finished lanes retire out of the batch as they complete.
/// Result slot i is exactly what runAdversary(n, *lanes[i], maxRounds)
/// returns (history excluded — batching never records history): same
/// rounds, same completed flag, bit for bit, because the double-buffered
/// batched recurrence and the scalar in-place one compute identical heard
/// matrices. Resets every adversary first.
[[nodiscard]] std::vector<BroadcastRun> runObliviousBatch(
    std::size_t n, const std::vector<Adversary*>& lanes,
    std::size_t maxRounds);

}  // namespace dynbcast
