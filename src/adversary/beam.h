// BeamWitnessSearch: offline search for long-lived adversarial tree
// sequences — lower-bound witnesses for t*(T_n).
//
// Online (per-round) adversaries are myopic: every convex one-round
// potential is minimized by continuing a static path, a corridor whose
// game value is only n−1. The exact solver shows optimal play reaches
// ⌈(3n−1)/2⌉−2 via early sacrifices. Beam search recovers much of that
// at sizes the exact solver cannot touch: it advances a population of
// game states level by level (level = round), expands each with a
// structured + randomized move pool, prunes to the best/most diverse B
// states, and reports the longest surviving lineage as a replayable
// tree sequence.
//
// The explored tree lives in a SearchTreeArena: the frontier keeps only
// arena node ids, lineage reconstruction walks parent links, and pruned
// branches are refcount-reclaimed — the search no longer retains the
// full per-level history. Per-level state dedup goes through a
// collision-safe TranspositionTable (full heard-matrix verification on
// every digest hit), so distinct states are never merged.
#pragma once

#include <cstdint>
#include <vector>

#include "src/support/rng.h"
#include "src/tree/rooted_tree.h"

namespace dynbcast {

struct BeamConfig {
  std::size_t beamWidth = 128;
  /// Random path/tree moves per expanded state (exploration).
  std::size_t randomMovesPerState = 4;
  /// Structured moves (freezes, damage trees) per expanded state.
  bool structuredMoves = true;
  /// Multiplicative noise on the damage-tree weights (0 = deterministic
  /// damage trees only; must be finite and >= 0). Noise is the beam's
  /// main exploration device: plain random trees are far weaker moves.
  double noiseAmplitude = 8.0;
  /// Fraction of beam slots reserved for random (non-elite) survivors,
  /// in percent (must be <= 100). Pure elitism collapses the beam into
  /// one corridor.
  std::size_t diversityPercent = 25;
  /// Safety cap on achieved rounds; 0 = the trivial bound n².
  std::size_t maxRounds = 0;
};

/// The widest beam validateBeamConfig accepts. The search sizes its
/// arena (8 nodes per slot) and transposition table (16 per slot) from
/// the width and hands out 32-bit node ids, so unbounded widths overflow
/// both; the experiments use 16–256.
inline constexpr std::size_t kMaxBeamWidth = 65536;

/// Throws std::invalid_argument unless the config is usable: beamWidth
/// must be in [1, kMaxBeamWidth] (an empty beam has no lineage to report),
/// diversityPercent <= 100 (larger values used to underflow the elite
/// slot count) and noiseAmplitude finite and >= 0 (the damage-tree
/// weights must stay positive and never NaN). Called eagerly by
/// beamSearchWitness and the registry.
void validateBeamConfig(const BeamConfig& config);

struct BeamResult {
  /// Longest achieved broadcast time (rounds until the final, forced
  /// completion round — the witness sequence has exactly this length).
  /// Never exceeds BeamConfig::maxRounds when that cap is set.
  std::size_t rounds = 0;
  /// The witness: replaying these trees from the identity state keeps
  /// broadcast incomplete until exactly the last round.
  std::vector<RootedTree> witness;
  /// Candidate evaluations actually performed (search effort after
  /// duplicate-move elimination).
  std::uint64_t statesExpanded = 0;
  /// Candidate moves generated before duplicate-move elimination — the
  /// quantity statesExpanded used to count.
  std::uint64_t movesGenerated = 0;
  /// Distinct surviving successor states admitted across all levels
  /// (transposition-table insertions).
  std::uint64_t uniqueStates = 0;
  /// Verified same-state merges: a digest hit whose full heard-matrix
  /// comparison confirmed an identical state.
  std::uint64_t transpositionHits = 0;
  /// Digest hits whose heard matrices differed — the states the old raw
  /// hash dedup would have silently (and wrongly) merged.
  std::uint64_t hashCollisions = 0;
  /// High-water mark of live arena nodes (retained-history footprint).
  std::size_t arenaPeakNodes = 0;
};

/// Runs the search. Deterministic for a fixed (n, seed, config).
/// Throws std::invalid_argument on an invalid config (see
/// validateBeamConfig). At n = 1 the start state is already
/// broadcast-complete, so the witness is empty and rounds is 0.
[[nodiscard]] BeamResult beamSearchWitness(std::size_t n, std::uint64_t seed,
                                           BeamConfig config = {});

/// Replays a witness and returns its broadcast round (0 if it never
/// completes — which would make it an invalid witness).
[[nodiscard]] std::size_t verifyWitness(std::size_t n,
                                        const std::vector<RootedTree>& trees);

}  // namespace dynbcast
