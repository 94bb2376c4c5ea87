#include "src/nonsplit/nonsplit.h"

#include "src/sim/broadcast_sim.h"
#include "src/support/assert.h"

namespace dynbcast {

namespace {

/// Repair pass shared by the random generators: give every
/// common-in-neighbor-less pair a random one.
void repairNonsplit(BitMatrix& g, std::size_t n, Rng& rng) {
  const BitMatrix t0 = g.transposed();
  std::vector<DynBitset> inSets;
  inSets.reserve(n);
  for (std::size_t y = 0; y < n; ++y) inSets.push_back(t0.row(y));
  for (std::size_t y1 = 0; y1 < n; ++y1) {
    for (std::size_t y2 = y1 + 1; y2 < n; ++y2) {
      if (!inSets[y1].intersects(inSets[y2])) {
        const std::size_t z = rng.uniform(n);
        g.set(z, y1);
        g.set(z, y2);
        inSets[y1].set(z);
        inSets[y2].set(z);
      }
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
  DYNBCAST_ASSERT(isNonsplit(g));
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
  DYNBCAST_ASSERT(isNonsplit(g));
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
  DYNBCAST_ASSERT(isNonsplit(g));
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
