// Gossip (all-to-all dissemination) helpers — the §5 "future work"
// extension: the same dynamic-rooted-tree adversary, but the run ends only
// when every process has heard of every process.
//
// Facts exercised by tests/benches: t*_gossip ≥ t*_broadcast on every
// sequence, and no *static* tree ever completes gossip for n ≥ 2 (a leaf
// has no out-edges besides its self-loop, so its id never propagates) —
// while dynamic sequences such as alternating reversed paths finish in
// Θ(n). Gossip termination is therefore a genuinely dynamic phenomenon.
#pragma once

#include <cstdint>
#include <functional>

#include "src/sim/broadcast_sim.h"

namespace dynbcast {

/// Result of comparing broadcast and gossip completion on one sequence.
struct GossipComparison {
  std::size_t broadcastRounds = 0;
  std::size_t gossipRounds = 0;
  bool broadcastCompleted = false;
  bool gossipCompleted = false;
};

/// Runs one simulation to gossip completion through runUntil, noting
/// when broadcast completed along the way. `nextTree` sees the live
/// state. A stalled run reports maxRounds for both objectives it missed.
[[nodiscard]] GossipComparison runGossipComparison(
    std::size_t n,
    const std::function<RootedTree(const BroadcastSim&)>& nextTree,
    std::size_t maxRounds);

/// Default round cap for GOSSIP runs. Gossip has no unconditional upper
/// bound in this model — an adaptive delayer can stall it forever (see
/// the SEC5 bench) — so unlike defaultRoundCap(n), which encodes the
/// paper's broadcast bound ⌈(1+√2)n−1⌉, this cap is a stall detector:
/// oblivious dynamic sequences finish gossip in Θ(n) (≈ 2n for the
/// alternating ping-pong), so ~10n with slack separates "slow" from
/// "never" with a wide margin.
[[nodiscard]] std::size_t defaultGossipRoundCap(std::size_t n);

}  // namespace dynbcast
