// BroadcastSim: the fast reference implementation of the paper's model
// (Definitions 2.1–2.3).
//
// State: the heard-of matrix H, where row y is
//   Heard_t(y) = {x : (x, y) ∈ G(t)},   G(t) = G_1 ∘ … ∘ G_t,
// i.e. the transpose of the product graph. Applying a rooted tree G_{t+1}
// is the recurrence Heard_{t+1}(y) = Heard_t(y) ∪ Heard_t(parent(y)),
// executed in reverse-BFS order so the update is in-place (children read
// their parent's round-t value before the parent mutates) — O(n²/64)
// words per round.
//
// Broadcast is done when ⋂_y Heard(y) ≠ ∅ (some x heard by everyone);
// gossip is done when every Heard(y) = [n].
//
// Completion tracking is INCREMENTAL: the simulator maintains the running
// row-intersection ⋂_y Heard(y) and per-row popcounts alongside the
// matrix, refreshed in the same fused pass that applies a round. done()
// and coverage checks therefore cost O(n/64) or O(1) instead of
// rescanning the whole O(n²/64) matrix every round.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/bitmatrix.h"
#include "src/sim/metrics.h"
#include "src/tree/rooted_tree.h"

namespace dynbcast {

class BroadcastSim {
 public:
  /// n processes; initially every process has heard only of itself
  /// (G(0) is the identity).
  explicit BroadcastSim(std::size_t n);

  [[nodiscard]] std::size_t processCount() const noexcept { return n_; }
  [[nodiscard]] std::size_t round() const noexcept { return round_; }

  /// Applies one synchronous round along the given rooted tree (the
  /// self-loops of the model are implicit in the recurrence).
  void applyTree(const RootedTree& tree);

  /// Applies one round along an arbitrary reflexive directed graph (used
  /// for the nonsplit-adversary experiments). The graph must have all
  /// self-loops, matching the model's no-forgetting guarantee. Sources
  /// with at most kSparseSourceBits heard bits are applied bit by bit,
  /// denser ones by a whole-row OR; both give the same rows.
  void applyGraph(const BitMatrix& g);

  /// applyGraph's crossover between its two per-source paths (set out,
  /// with the measurements behind it, in broadcast_sim.cpp).
  static const std::size_t kSparseSourceBits;

  /// Heard set of process y: who y has heard of so far.
  [[nodiscard]] const DynBitset& heardBy(std::size_t y) const noexcept {
    return heard_[y];
  }

  /// |Heard(y)| from the incrementally maintained per-row popcounts —
  /// O(1), never recounts the row.
  [[nodiscard]] std::size_t heardCount(std::size_t y) const noexcept {
    return rowCount_[y];
  }

  /// The heard-of matrix (row y = Heard(y)); the transpose of G(t).
  [[nodiscard]] const std::vector<DynBitset>& heardMatrix() const noexcept {
    return heard_;
  }

  /// The product graph G(t) itself (row x = who x has reached).
  [[nodiscard]] BitMatrix reachMatrix() const;

  /// Set of processes heard by everyone: ⋂_y Heard(y). Maintained
  /// incrementally; this is a reference to LIVE state — the next
  /// applyTree/applyGraph/reset mutates it in place, so callers that
  /// need a snapshot across rounds must copy it (pre-rewrite the method
  /// returned a copy unconditionally).
  [[nodiscard]] const DynBitset& broadcasters() const noexcept {
    return common_;
  }

  /// True when some process has been heard by everyone (t* reached).
  /// O(1): reads the popcount maintained by the fused intersection pass.
  [[nodiscard]] bool broadcastDone() const noexcept {
    return commonCount_ != 0;
  }

  /// True when everyone has heard of everyone (gossip complete). O(1):
  /// reads the maintained full-row counter.
  [[nodiscard]] bool gossipDone() const noexcept { return fullRows_ == n_; }

  [[nodiscard]] RoundMetrics metrics() const;

  /// Returns to round 0 (identity state).
  void reset();

 private:
  /// Recomputes common_/rowCount_/fullRows_ from heard_ (used on reset
  /// and applyGraph, where rows change arbitrarily).
  void rebuildCompletionState();

  std::size_t n_;
  std::size_t round_ = 0;
  std::vector<DynBitset> heard_;
  std::vector<DynBitset> scratch_;
  // Incremental completion state (see file comment). Invariants after
  // every public mutation: common_ == ⋂_y heard_[y],
  // commonCount_ == common_.count(), rowCount_[y] == heard_[y].count(),
  // fullRows_ == |{y : rowCount_[y]==n}|.
  DynBitset common_;
  std::size_t commonCount_ = 0;
  std::vector<std::size_t> rowCount_;
  std::size_t fullRows_ = 0;
  std::vector<std::size_t> orderScratch_;  // reused BFS-order buffer
};

}  // namespace dynbcast
