// ExactSolver: the exact value of the broadcast game for small n.
//
// Definition 2.3 makes t*(T_n) the value of a one-player game: the
// adversary repeatedly picks any rooted tree on [n] to maximize the
// number of rounds until the product graph has a full row. Since
// processes have no choices, the value is the longest path from the
// identity state to a broadcast state in the (finite, acyclic-by-
// monotonicity) state graph — computable exactly by memoized DFS over
// all n^(n−1) moves per state.
//
// States are row arrays of 8-bit masks (row y = Heard(y)), so n ≤ 8;
// the full move pool is then at most 8^7 = 2,097,152 trees. The memo
// canonicalizes states under simultaneous node relabeling with an
// orbit-pruned permutation scan: nodes are partitioned by refined
// degree-style invariants and only permutations respecting the
// partition are tried — typically a handful instead of n!.
//
// solve() returns the game value and optimalPlay() one line of play
// that reaches it; both are practical through n = 5. Past that range
// the certified lower-bound line is the two-phase construction
// (TwoPhaseAdversary in oblivious.h), which reaches the ⌈(3n−1)/2⌉−2
// bound of [14] at every n with no search.
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

class ExactSolver {
 public:
  /// Row-array encoding limit: 8 rows of 8-bit masks.
  static constexpr std::size_t kMaxN = 8;

  /// Precondition: 2 ≤ n ≤ kMaxN (throws AssertionError otherwise).
  explicit ExactSolver(std::size_t n, ExactOptions options = {});

  /// Computes t*(T_n). Memory and time grow steeply with n — n ≤ 5 runs
  /// in well under a second.
  [[nodiscard]] ExactResult solve();

  /// Computes t*(T_n) and extracts one optimal line of play: a concrete
  /// tree sequence achieving the game value from the identity state.
  /// The sequence is itself a machine-checkable lower-bound certificate
  /// (replay it on a simulator and count rounds).
  [[nodiscard]] std::vector<RootedTree> optimalPlay();

 private:
  std::size_t n_;
  ExactOptions options_;
};

}  // namespace dynbcast
