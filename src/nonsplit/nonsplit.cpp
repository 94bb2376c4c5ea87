#include "src/nonsplit/nonsplit.h"

#include <bit>
#include <cstdint>

#include "src/sim/broadcast_sim.h"
#include "src/support/assert.h"

namespace dynbcast {

namespace {

/// Repair pass shared by the random generators: give every
/// common-in-neighbor-less pair a random one. Pairs are visited in
/// (y1, y2) order and tested against the graph as repaired so far.
/// Row y1's coverage (pairCoverageFrom) answers every test of that row:
/// a clear bit y2 > y1 is an open pair. The open bits of the current
/// coverage word are held in a register cursor, lowest first. A repair
/// through z sets z → y1 and z → y2, clears z's new out-row word from
/// the cursor (y2 and every other pair z now covers) and ORs only the
/// words above the cursor into the coverage, since the words below it
/// are never read again. No pass rescans the coverage for its next clear
/// bit. Tail bits past n read as open in the last word, so the row ends
/// at the first y2 >= n. O(n²/64 + E·n/64 + repairs·n/64) word
/// operations instead of one O(n/64) test per pair.
void repairNonsplit(BitMatrix& g, std::size_t n, Rng& rng) {
  constexpr std::size_t kBits = DynBitset::kBits;
  BitMatrix in = g.transposed();
  DynBitset cov(n);
  std::uint64_t* const covWords = cov.wordData();
  const std::size_t nwords = cov.wordCount();
  for (std::size_t y1 = 0; y1 < n; ++y1) {
    pairCoverageFrom(g, in.row(y1), y1, cov);
    std::size_t wi = (y1 + 1) / kBits;
    std::uint64_t open =
        wi < nwords ? ~covWords[wi] & (~std::uint64_t{0} << ((y1 + 1) % kBits))
                    : 0;
    for (;;) {
      while (open == 0 && ++wi < nwords) open = ~covWords[wi];
      if (open == 0) break;
      const std::size_t y2 =
          wi * kBits + static_cast<std::size_t>(std::countr_zero(open));
      if (y2 >= n) break;
      const std::size_t z = rng.uniform(n);
      g.set(z, y1);
      g.set(z, y2);
      in.set(y2, z);  // in(y1) is not read again
      const std::uint64_t* zRow = g.row(z).wordData();
      open &= ~zRow[wi];
      bitword::orAssign(covWords + wi + 1, zRow + wi + 1, nwords - wi - 1);
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
