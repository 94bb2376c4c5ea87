// The sparse simulation backend: t* without the heard-of matrix.
//
// The dense BroadcastSim stores the heard-of matrix as n bitset rows —
// O(n²) bits per instance, which caps scenarios near n ≈ 10⁴. The sparse
// backend takes rounds as arc heads grouped by source (SparseRound, one
// format from generator to round cache) and answers only the question
// every sparse row asks, t*, in O(n + cached round arcs) memory; this is
// what unlocks n = 10⁶. Runs that want per-round history use the dense
// engine.
//
// runFrontierTStar is EXACT — it never approximates t*, so the
// differential suite can demand bit-for-bit agreement with BroadcastSim.
// Forward word-parallel propagation of ≤64 sampled sources (one uint64
// per node) yields an upper bound U on t*. One certification pass then
// pins t* below U, with no search over rounds:
//   - A backward word-parallel filter at limit = U − 1 (maxRounds when no
//     sampled source completed) keeps the candidates that reach every
//     target: a superset of the nodes that broadcast by limit. The
//     targets are the laggards of the sampled forward pass, the nodes
//     the fewest sources had reached by limit.
//   - Candidate batches of 64 are forwarded over [1, limit]. A batch
//     that completes at round d becomes the best so far: limit drops to
//     d − 1 and the remaining candidates are re-filtered there. A batch
//     that fails yields one node each member missed, and those nodes
//     refine the remaining candidates at the same limit.
//   - t* is the last completion round found, else U; with neither, the
//     run did not complete by maxRounds. Each batch removes at least its
//     own members, so the pass forwards ≤ ⌈n/64⌉ batches.
// When n ≤ 64 every node is a sampled source, so the filter passes none.
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

/// An arc (src, dst): dst hears src this round.
using Arc = std::pair<std::uint32_t, std::uint32_t>;

/// One round's communication graph, grouped by source (CSR): the nodes
/// that hear x this round are arcs[offsets[x] .. offsets[x + 1]).
/// Self-loops are implicit (the model never forgets), so an arc x → x
/// adds nothing; duplicate heads add nothing either. runFrontierTStar
/// asserts every round's shape: n + 1 nondecreasing offsets from 0 to
/// arcs.size(), at most 2³² − 1 arcs, every head < n.
struct SparseRound {
  std::vector<std::uint32_t> offsets;  // n + 1 entries
  /// The arc heads, source by source.
  std::vector<std::uint32_t> arcs;

  friend bool operator==(const SparseRound&, const SparseRound&) = default;
};

/// Rebuilds `out` over n nodes from `pairs` in any order by a counting
/// sort on the source: each source keeps its heads in input order, and
/// self-loops are dropped. For producers that do not emit arcs grouped
/// by source; the buffers of `out` are reused.
void assignArcs(std::size_t n, const std::vector<Arc>& pairs,
                SparseRound& out);

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
  /// Sampled forward sources / backward targets, clamped to
  /// [1, min(64, n)].
  std::size_t samples = 64;
  /// Round-graph cache budget in arcs. The cache holds copies of the
  /// pulled SparseRounds: 4 bytes per arc plus 4 bytes per offset, and a
  /// round is charged one arc per 4 bytes, so the default bounds the
  /// cache at 512 MiB. Beyond it the certifier's backward and forward
  /// passes replay rounds through source.reset() instead — slower,
  /// still exact.
  std::size_t cacheBudgetArcs = std::size_t(1) << 27;
};

struct FrontierTStarResult {
  std::size_t rounds = 0;  ///< t* when completed, else maxRounds
  bool completed = false;
  /// Candidate batches the certification pass forwarded: deterministic,
  /// at most ⌈n/64⌉, and 0 when the backward filter passes no candidate.
  std::size_t batches = 0;
};

/// Computes t* for the round sequence of `source` without materializing
/// heard sets: O(n) words of state plus the round cache. Exact — see the
/// file comment for the sampling + certification argument.
[[nodiscard]] FrontierTStarResult runFrontierTStar(
    std::size_t n, SparseRoundSource& source,
    const FrontierTStarOptions& options);

}  // namespace dynbcast
