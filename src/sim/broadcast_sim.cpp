// Allocation-free hot path: dynbcast_lint bans allocation in function
// bodies here (rule hot-alloc); setup/diagnostic exceptions carry allow().
// dynbcast-lint: hot-path
#include "src/sim/broadcast_sim.h"

#include "src/support/assert.h"

namespace dynbcast {

BroadcastSim::BroadcastSim(std::size_t n)
    : n_(n),
      heard_(n, DynBitset(n)),
      scratch_(n, DynBitset(n)),
      common_(n),
      rowCount_(n, 0) {
  DYNBCAST_ASSERT(n > 0);
  reset();
}

void BroadcastSim::reset() {
  round_ = 0;
  for (std::size_t y = 0; y < n_; ++y) {
    heard_[y].clear();
    heard_[y].set(y);
  }
  rebuildCompletionState();
}

void BroadcastSim::rebuildCompletionState() {
  common_.setAll();
  commonCount_ = n_;
  fullRows_ = 0;
  const std::size_t nwords = common_.wordCount();
  for (std::size_t y = 0; y < n_; ++y) {
    rowCount_[y] = heard_[y].count();
    if (rowCount_[y] == n_) ++fullRows_;
    commonCount_ = bitword::andAssignCount(common_.wordData(),
                                           heard_[y].wordData(), nwords);
  }
}

void BroadcastSim::applyTree(const RootedTree& tree) {
  DYNBCAST_ASSERT_MSG(tree.size() == n_, "tree size mismatch");
  // One fused reverse-BFS pass: OR the parent row in, refresh the row's
  // popcount, and rebuild the running intersection. Each node's row is
  // mutated exactly once (at its own step), so intersecting it right
  // after its update sees its final round-(t+1) value.
  tree.bfsOrderInto(orderScratch_);
  common_.setAll();
  commonCount_ = n_;
  const std::size_t nwords = common_.wordCount();
  for (std::size_t i = orderScratch_.size(); i-- > 0;) {
    const std::size_t y = orderScratch_[i];
    const std::size_t p = tree.parent(y);
    if (p != y) {
      const std::size_t c = heard_[y].orCountWith(heard_[p]);
      if (c != rowCount_[y]) {
        rowCount_[y] = c;
        if (c == n_) ++fullRows_;
      }
    }
    commonCount_ = bitword::andAssignCount(common_.wordData(),
                                           heard_[y].wordData(), nwords);
  }
  ++round_;
}

void BroadcastSim::applyGraph(const BitMatrix& g) {
  DYNBCAST_ASSERT_MSG(g.dim() == n_, "graph size mismatch");
  DYNBCAST_ASSERT_MSG(g.isReflexive(),
                      "model requires self-loops (no forgetting)");
  // Heard_{t+1}(y) = ∪ {Heard_t(x) : (x, y) ∈ g}. Arbitrary in-degree
  // needs the double buffer.
  for (std::size_t y = 0; y < n_; ++y) {
    scratch_[y] = heard_[y];
  }
  for (std::size_t x = 0; x < n_; ++x) {
    const DynBitset& row = g.row(x);
    for (std::size_t y = row.findFirst(); y < n_; y = row.findNext(y + 1)) {
      if (y != x) scratch_[y].orWith(heard_[x]);
    }
  }
  heard_.swap(scratch_);
  ++round_;
  // Arbitrary graphs can touch every row; recompute the completion state
  // in one O(n²/64) pass (the same cost class as the round itself).
  rebuildCompletionState();
}

BitMatrix BroadcastSim::reachMatrix() const {
  BitMatrix reach(n_);
  for (std::size_t y = 0; y < n_; ++y) {
    const DynBitset& h = heard_[y];
    for (std::size_t x = h.findFirst(); x < n_; x = h.findNext(x + 1)) {
      reach.set(x, y);
    }
  }
  return reach;
}

RoundMetrics BroadcastSim::metrics() const {
  return computeMetrics(reachMatrix(), round_);
}

}  // namespace dynbcast
