// ExactSolver: exact and certified-witness play for the broadcast game.
//
// Definition 2.3 makes t*(T_n) the value of a one-player game: the
// adversary repeatedly picks any rooted tree on [n] to maximize the
// number of rounds until the product graph has a full row. Since
// processes have no choices, the value is the longest path from the
// identity state to a broadcast state in the (finite, acyclic-by-
// monotonicity) state graph — computable exactly by memoized DFS over
// all n^(n−1) moves per state.
//
// States are stored as row arrays of 16-bit masks (row y = Heard(y)),
// which carries the solver to n ≤ 16; the historical packed-uint64
// encoding (row y in byte y, n ≤ 8) survives as static helpers. The
// memo canonicalizes states under simultaneous node relabeling with an
// orbit-pruned permutation scan: nodes are partitioned by refined
// degree-style invariants and only permutations respecting the
// partition are tried — typically a handful instead of n!.
//
// Two query modes:
//   solve()/optimalPlay() — the exhaustive game value. Feasible while
//   the full move pool n^(n−1) is enumerable (n ≤ 8 structurally;
//   practical through n = 5).
//   witnessPlay(target) — a certified lower-bound line of play. For
//   n ≤ 8 it is a depth-first search over the complete move pool for
//   `target` rounds of survival, pruned by a canonical-form failure
//   memo — the cross-check. Beyond that it is a prefix of the two-phase
//   construction (TwoPhaseAdversary in oblivious.h), which reaches the
//   ⌈(3n−1)/2⌉−2 bound of [14] at every n with no search. Either way the
//   returned sequence replays to exactly its length.
//
// This module validates everything else at small scale: the simulators,
// the bound formulas of Theorem 3.1, and how close the heuristic
// adversaries come to optimal play.
#pragma once

#include <cstdint>
#include <vector>

#include "src/tree/rooted_tree.h"

namespace dynbcast {

struct ExactOptions {
  /// Canonicalize states under node relabeling (strongly recommended).
  bool canonicalize = true;
  /// Hard cap on recursion depth as a safety net; 0 = n² (the trivial
  /// bound: at least one new edge appears per round).
  std::size_t depthCap = 0;
};

struct ExactResult {
  /// The exact game value t*(T_n).
  std::size_t tStar = 0;
  /// Distinct (canonical) states memoized.
  std::uint64_t statesMemoized = 0;
  /// Total successor states evaluated (after per-state deduplication).
  std::uint64_t successorsExpanded = 0;
  /// Successors dropped by the row-wise dominance filter.
  std::uint64_t dominatedPruned = 0;
};

struct ExactWitnessOptions {
  /// Search-node budget of the complete-pool search (n ≤ 8); it gives up
  /// (returning the best play found at smaller targets) once exhausted.
  /// The construction used beyond n = 8 does no search and ignores it.
  std::uint64_t nodeBudget = 2'000'000;
};

class ExactSolver {
 public:
  /// Row-array encoding limit: 16 rows of 16-bit masks.
  static constexpr std::size_t kMaxN = 16;

  /// Precondition: 2 ≤ n ≤ kMaxN. The exhaustive queries additionally
  /// require the full move pool to be enumerable (n ≤ 8).
  explicit ExactSolver(std::size_t n, ExactOptions options = {});

  /// Computes t*(T_n). Requires n ≤ 8 (throws AssertionError beyond);
  /// memory and time grow steeply — n ≤ 5 runs in well under a second.
  [[nodiscard]] ExactResult solve();

  /// Computes t*(T_n) and extracts one optimal line of play: a concrete
  /// tree sequence achieving the game value from the identity state.
  /// The sequence is itself a machine-checkable lower-bound certificate
  /// (replay it on a simulator and count rounds). Requires n ≤ 8.
  [[nodiscard]] std::vector<RootedTree> optimalPlay();

  /// Returns a certified play of at most `targetRounds` rounds: for
  /// n ≤ 8 the longest the complete-pool search finds (it may fall short
  /// of the target when the search space or node budget is exhausted);
  /// beyond, the first min(target, L) − 1 trees of the two-phase
  /// construction plus a star finisher, L = ⌈(3n−1)/2⌉−2. The sequence
  /// replays from the identity state to broadcast in exactly its length
  /// — verified internally before returning. Unlike solve(), works for
  /// all 2 ≤ n ≤ kMaxN.
  [[nodiscard]] std::vector<RootedTree> witnessPlay(
      std::size_t targetRounds, ExactWitnessOptions witnessOptions = {});

  /// Packs a heard-of matrix (row y = Heard(y)) into the historical
  /// uint64 encoding (n ≤ 8, row y in byte y); exposed for tests.
  [[nodiscard]] static std::uint64_t encodeIdentity(std::size_t n);

  /// Applies a tree (as a parent array) to an encoded state.
  [[nodiscard]] static std::uint64_t applyTreeEncoded(
      std::uint64_t state, const std::vector<std::size_t>& parents);

  /// True when some process is heard by everyone in the encoded state.
  [[nodiscard]] static bool isBroadcastState(std::uint64_t state,
                                             std::size_t n);

 private:
  std::size_t n_;
  ExactOptions options_;
};

}  // namespace dynbcast
