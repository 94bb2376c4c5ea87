#include "src/nonsplit/nonsplit.h"

#include "src/sim/broadcast_sim.h"
#include "src/support/assert.h"

namespace dynbcast {

namespace {

/// Repair pass shared by the random generators: give every
/// common-in-neighbor-less pair a random one. Pairs are visited in
/// (y1, y2) order and tested against the graph as repaired so far; row
/// y1's coverage (pairCoverageFrom) answers every test of that row, and
/// a repair through z ORs z's new out-row into it. O(n²/64 + E·n/64 +
/// repairs·n/64) word operations instead of one O(n/64) test per pair.
void repairNonsplit(BitMatrix& g, std::size_t n, Rng& rng) {
  BitMatrix in = g.transposed();
  DynBitset cov(n);
  for (std::size_t y1 = 0; y1 < n; ++y1) {
    pairCoverageFrom(g, in.row(y1), y1, cov);
    const std::size_t first = y1 / DynBitset::kBits;
    for (std::size_t y2 = cov.findNextClear(y1 + 1); y2 < n;
         y2 = cov.findNextClear(y2 + 1)) {
      const std::size_t z = rng.uniform(n);
      g.set(z, y1);
      g.set(z, y2);
      in.set(y2, z);  // in(y1) is not read again
      bitword::orAssign(cov.wordData() + first, g.row(z).wordData() + first,
                        cov.wordCount() - first);
    }
  }
}

}  // namespace

BitMatrix randomNonsplitGraph(std::size_t n, std::size_t extraEdges,
                              Rng& rng) {
  DYNBCAST_ASSERT(n > 0);
  BitMatrix g = BitMatrix::identity(n);
  for (std::size_t e = 0; e < extraEdges; ++e) {
    g.set(rng.uniform(n), rng.uniform(n));
  }
  repairNonsplit(g, n, rng);
  return g;
}

BitMatrix bernoulliNonsplitGraph(std::size_t n, double p, Rng& rng) {
  DYNBCAST_ASSERT(n > 0);
  DYNBCAST_ASSERT_MSG(p >= 0.0 && p <= 1.0, "p must be a probability");
  BitMatrix g = BitMatrix::identity(n);
  for (std::size_t x = 0; x < n; ++x) {
    for (std::size_t y = 0; y < n; ++y) {
      if (x != y && rng.chance(p)) g.set(x, y);
    }
  }
  repairNonsplit(g, n, rng);
  return g;
}

BitMatrix skewedNonsplitGraph(std::size_t n, Rng& rng) {
  DYNBCAST_ASSERT(n > 0);
  BitMatrix g = BitMatrix::identity(n);
  // Every pair gets a common in-neighbor biased towards low indices, so a
  // few "dispatcher" nodes do most of the informing — the slow nonsplit
  // regime (information still spreads in O(log n), per [2]).
  const std::size_t span = std::max<std::size_t>(1, n / 8);
  for (std::size_t y1 = 0; y1 < n; ++y1) {
    for (std::size_t y2 = y1 + 1; y2 < n; ++y2) {
      const std::size_t z = std::min(rng.uniform(span), rng.uniform(span));
      g.set(z, y1);
      g.set(z, y2);
    }
  }
  return g;
}

BroadcastRun runNonsplitBroadcast(
    std::size_t n, const std::function<BitMatrix(Rng&)>& makeGraph,
    std::size_t maxRounds, Rng& rng) {
  BroadcastSim sim(n);
  return runUntil(sim, Objective::kBroadcast, maxRounds,
                  /*recordHistory=*/false,
                  [&makeGraph, &rng](BroadcastSim& state) {
                    const BitMatrix g = makeGraph(rng);
                    DYNBCAST_ASSERT_MSG(isNonsplit(g),
                                        "adversary move must be nonsplit");
                    state.applyGraph(g);
                  });
}

}  // namespace dynbcast
