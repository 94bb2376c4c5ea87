// The sparse simulation backend: t* without the heard-of matrix.
//
// The dense BroadcastSim stores the heard-of matrix as n bitset rows —
// O(n²) bits per instance, which caps scenarios near n ≈ 10⁴. The sparse
// backend takes rounds as arc lists (SparseRound) and answers only the
// question every sparse row asks, t*, in O(n + cached round arcs) memory;
// this is what unlocks n = 10⁶. Runs that want per-round history use the
// dense engine.
//
// runFrontierTStar is EXACT — it never approximates t*, so the
// differential suite can demand bit-for-bit agreement with BroadcastSim.
// Forward word-parallel propagation of ≤64 sampled sources (one uint64
// per node) yields an upper bound U on t*. A search over the monotone
// predicate "⋂_y Heard_t(y) ≠ ∅" then pins t* exactly. Its first probe
// is at U − 1, since U is usually within a round of t*; then it
// bisects. Each probe is answered by a backward word-parallel
// over-approximation (candidates reaching every target ⊇ the true
// broadcasters) refined by forward certification of candidate batches.
// The targets are the laggards of the sampled forward pass, the nodes
// the fewest sources had reached by U − 1. A certified batch reports
// the round it completed, and the search's upper end moves there, which
// may lie below the probe.
//
// Layering: sim depends only on graph/tree/support, so round sequences
// arrive through the SparseRoundSource interface; the DynamicsModel
// adapter lives in src/dynamics/dynamics.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dynbcast {

/// One round's communication graph as an arc list. Self-loops are
/// implicit (the model never forgets), so arcs with src == dst are
/// ignored by the consumers.
struct SparseRound {
  std::size_t n = 0;
  /// (src, dst): dst hears src this round.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> arcs;
};

/// A replayable stream of round graphs for the t*-only mode. reset()
/// must rewind to round 0 so that the next() sequence replays exactly —
/// the same contract DynamicsModel::reset() already has.
class SparseRoundSource {
 public:
  virtual ~SparseRoundSource() = default;
  virtual void reset() = 0;
  /// The next round's graph; the reference stays valid until the
  /// following next() or reset().
  virtual const SparseRound& next() = 0;
};

/// Options for the t*-only mode. Every field except maxRounds affects
/// performance only — the returned rounds/completed are exact for any
/// setting.
struct FrontierTStarOptions {
  /// Stall cap: rounds is reported as maxRounds with completed == false
  /// when broadcast does not finish within it.
  std::size_t maxRounds = 0;
  /// Seeds the (performance-only) choice of sampled sources; the
  /// backward targets follow from what those sources reached.
  std::uint64_t sampleSeed = 0;
  /// Sampled forward sources / backward targets, clamped to [1, 64].
  std::size_t samples = 64;
  /// Round-graph cache budget in arcs. Cached rounds are grouped by
  /// source: 4 bytes per arc (self-loops dropped) plus 4 bytes per node
  /// for the offsets, and a round is charged one arc per 4 bytes, so the
  /// default bounds the cache at 512 MiB. Beyond it the certifier's
  /// backward and forward passes replay rounds through source.reset()
  /// instead — slower, still exact.
  std::size_t cacheBudgetArcs = std::size_t(1) << 27;
};

struct FrontierTStarResult {
  std::size_t rounds = 0;  ///< t* when completed, else maxRounds
  bool completed = false;
  /// Diagnostics: total source.next() calls.
  std::size_t roundsGenerated = 0;
  /// Deterministic certifier counters: rounds tested exactly (probes)
  /// and candidate batches forwarded to certify them (batches). Both
  /// stay 0 when every node is sampled, since the forward scan is then
  /// exact by itself.
  std::size_t probes = 0;
  std::size_t batches = 0;
};

/// Computes t* for the round sequence of `source` without materializing
/// heard sets: O(n) words of state plus the round cache. Exact — see the
/// file comment for the sampling + certification argument.
[[nodiscard]] FrontierTStarResult runFrontierTStar(
    std::size_t n, SparseRoundSource& source,
    const FrontierTStarOptions& options);

}  // namespace dynbcast
