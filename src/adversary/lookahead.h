// LookaheadDelayAdversary: depth-limited search over candidate moves.
//
// One-step greedy fails against this game: the static path minimizes any
// convex one-round potential yet yields only t* = n−1, while optimal
// play (exact solver, small n) reaches ⌈(3n−1)/2⌉−2 by making early
// "sacrifice" moves whose payoff appears several rounds later. The fix
// is to search: from the current state, expand a small structured
// candidate pool (the previous path, stable freezes, damage-greedy
// trees, random paths) to depth d, maximize rounds-until-broadcast
// within the horizon, and break ties by the convex coverage potential of
// the horizon state.
//
// Different move orders frequently transpose into the same heard matrix
// (freeze variants differing only below the frozen prefix, damage trees
// sharing a root). A per-call transposition table — collision-safe: a
// digest hit is merged only after the full heard matrices compare equal
// — evaluates each (state, remaining-depth) node once per nextTree call.
//
// reset() here must replay bit-identically; gated by the named suite.
// dynbcast-lint: replay-test(LookaheadResetReplaysDeterministically)
#pragma once

#include <cstdint>
#include <vector>

#include "src/adversary/adaptive.h"
#include "src/adversary/adversary.h"
#include "src/support/rng.h"

namespace dynbcast {

struct LookaheadConfig {
  /// Search depth in rounds (1 = plain greedy). Cost grows as
  /// (pool size)^depth; 3 is comfortable for n ≤ 64.
  std::size_t depth = 3;
  /// Random path/tree candidates added to the structured pool per node.
  std::size_t randomMoves = 1;
  /// Damage-greedy tree roots tried per node.
  std::size_t damageRoots = 2;
};

/// Cumulative search effort across nextTree calls (reset() clears).
struct LookaheadStats {
  /// Interior search nodes visited (cache hits included).
  std::uint64_t nodesVisited = 0;
  /// Nodes answered from the per-call transposition table.
  std::uint64_t transpositionHits = 0;
};

class LookaheadDelayAdversary final : public Adversary {
 public:
  LookaheadDelayAdversary(std::size_t n, std::uint64_t seed,
                          LookaheadConfig config = {});

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;

  [[nodiscard]] const LookaheadStats& stats() const noexcept {
    return stats_;
  }

 private:
  std::size_t n_;
  std::uint64_t seed_;
  Rng rng_;
  LookaheadConfig config_;
  std::vector<std::size_t> order_;
  /// One scratch per search depth, reused across rounds (see search()).
  std::vector<EvalScratch> arena_;
  LookaheadStats stats_;
};

}  // namespace dynbcast
