// Allocation-free hot path: dynbcast_lint bans allocation in function
// bodies here (rule hot-alloc); setup/diagnostic exceptions carry allow().
// dynbcast-lint: hot-path
#include "src/sim/broadcast_sim.h"

#include <array>

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

// A source whose heard row holds at most this many bits is applied bit
// by bit: its bits are collected once, and each out-neighbour's scratch
// row gets one single-word store per bit. A denser source ORs its whole
// n/64-word row into each out-neighbour instead. Measured at n = 2048
// (32 words, 4-vCPU AVX-512 host): one pass over the 290,034 arcs of a
// randomNonsplitGraph(2048, 4096) round, every source holding k bits,
// best of 15, in ms:
//   k                       1    2    4    6    7    8   10   16   32
//   k single-bit stores   1.2  1.4  1.9  2.5  2.7  3.1  3.5  4.7  8.0
//   one OR, AVX-512 tier  2.8  2.8  2.9  3.0  3.0  3.0  3.0  2.9  2.9
//   one OR, scalar tier   5.9  6.1  6.6  6.1  5.9  5.9  6.3  6.1  5.9
// The paths tie at k = 8 on the fastest tier, and the bitwise path is
// still 2x faster than the scalar OR there, so 8 is the crossover.
// The bits are collected once per source: re-walking the source row for
// every arc took 7.8 ms at k = 1, slower than the OR.
const std::size_t BroadcastSim::kSparseSourceBits = 8;

void BroadcastSim::applyGraph(const BitMatrix& g) {
  DYNBCAST_ASSERT_MSG(g.dim() == n_, "graph size mismatch");
  DYNBCAST_ASSERT_MSG(g.isReflexive(),
                      "model requires self-loops (no forgetting)");
  // Heard_{t+1}(y) = ∪ {Heard_t(x) : (x, y) ∈ g}, pushed from each
  // source x to its out-neighbours. Arbitrary in-degree needs the double
  // buffer. rowCount_ is exact on entry (class invariant), so it picks
  // each source's path without a recount. Round 1 of every run starts
  // from the identity, so all of its sources take the bitwise path.
  for (std::size_t y = 0; y < n_; ++y) {
    scratch_[y] = heard_[y];
  }
  std::array<std::size_t, kSparseSourceBits> bits{};
  for (std::size_t x = 0; x < n_; ++x) {
    const DynBitset& src = heard_[x];
    if (rowCount_[x] <= kSparseSourceBits) {
      std::size_t k = 0;
      src.forEachSet([&bits, &k](std::size_t b) { bits[k++] = b; });
      g.row(x).forEachSet([this, x, &bits, k](std::size_t y) {
        if (y == x) return;
        DynBitset& dst = scratch_[y];
        for (std::size_t i = 0; i < k; ++i) dst.set(bits[i]);
      });
    } else {
      g.row(x).forEachSet([this, x, &src](std::size_t y) {
        if (y != x) scratch_[y].orWith(src);
      });
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
    heard_[y].forEachSet([&reach, y](std::size_t x) { reach.set(x, y); });
  }
  return reach;
}

RoundMetrics BroadcastSim::metrics() const {
  return computeMetrics(reachMatrix(), round_);
}

}  // namespace dynbcast
