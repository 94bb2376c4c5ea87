// Nonsplit-graph substrate (related work §4).
//
// A directed graph is *nonsplit* when every pair of nodes has a common
// in-neighbor. Charron-Bost & Schiper [2] showed broadcast under
// nonsplit adversaries finishes within ⌈log₂ n⌉ rounds; Függer, Nowak &
// Winkler [9] sharpened the radius to O(log log n). Together with the
// reduction of [1] (n−1 rooted-tree rounds simulate one nonsplit round,
// see reduction.h) this gave the pre-paper O(n log log n) bound that
// Theorem 3.1 replaces.
//
// This module generates nonsplit adversary moves and measures broadcast
// under them, so the benches can exhibit the logarithmic regime next to
// the linear tree regime.
#pragma once

#include <cstdint>
#include <functional>

#include "src/graph/bitmatrix.h"
#include "src/graph/properties.h"
#include "src/sim/sim_backend.h"
#include "src/support/rng.h"

namespace dynbcast {

/// Random reflexive nonsplit graph: starts from `extraEdges` random edges
/// plus all self-loops, then repairs every pair lacking a common
/// in-neighbor by giving a random node edges to both. Nondegenerate (no
/// universal hub is forced) and nonsplit by construction.
[[nodiscard]] BitMatrix randomNonsplitGraph(std::size_t n,
                                            std::size_t extraEdges, Rng& rng);

/// Adversarially skewed nonsplit graph: identity plus, for every pair, a
/// common in-neighbor chosen to be a *low-index* node with bias, keeping
/// information flow bottlenecked through few nodes.
[[nodiscard]] BitMatrix skewedNonsplitGraph(std::size_t n, Rng& rng);

/// Density-parameterized variant of randomNonsplitGraph: every ordered
/// pair (x, y), x ≠ y, gets an edge independently with probability p
/// (plus all self-loops) before the same nonsplit repair pass. p = 0 is
/// the sparsest legal regime (repair edges only); p = 1 is the complete
/// graph. Requires 0 ≤ p ≤ 1.
[[nodiscard]] BitMatrix bernoulliNonsplitGraph(std::size_t n, double p,
                                               Rng& rng);

/// Runs broadcast through runUntil on a BroadcastSim, one graph from
/// `makeGraph` per round (must be reflexive; each step asserts
/// nonsplitness before applying it). A stalled run reports maxRounds,
/// not completed.
[[nodiscard]] BroadcastRun runNonsplitBroadcast(
    std::size_t n, const std::function<BitMatrix(Rng&)>& makeGraph,
    std::size_t maxRounds, Rng& rng);

}  // namespace dynbcast
