// Adaptive delaying adversaries.
//
// The paper's lower bound (inherited from Zeiner, Schwarz & Schmid [14])
// shows an adaptive adversary can force t* ≥ ⌈(3n−1)/2⌉ − 2, i.e. 50%
// beyond the static path's n−1. The strategies here are built on the
// *freezing* idea that also powers such constructions:
//
//   To stop new processes from learning about x, order the round's path
//   so that every process that knows x sits BELOW every process that
//   does not. Then no (knower → non-knower) edge exists and x's coverage
//   is frozen for the round, while the model's "≥ 1 new edge per round"
//   progress is paid by unimportant processes.
//
// reset() here must replay bit-identically; gated by the named suite.
// dynbcast-lint: replay-test(DeterministicAcrossInvocations)
//
// A second ingredient matters just as much: STABILITY. Re-sorting the
// path from scratch every round creates information cascades (a node
// placed early feeds its whole suffix), which *accelerates* broadcast.
// The effective delaying strategies keep the previous round's order and
// apply the minimal stable partition that freezes the current leaders —
// exactly the structure of the rotation constructions behind the
// ⌈(3n−1)/2⌉−2 bound.
//
// FreezePathAdversary applies the stable freeze directly;
// GreedyDelayAdversary evaluates a whole candidate pool (stable freezes,
// the unchanged previous path, rotations, brooms, heard-size orders,
// random paths/trees) one round ahead and picks the lexicographically
// least damaging tree.
#pragma once

#include <cstdint>
#include <vector>

#include "src/adversary/adversary.h"
#include "src/support/bitset.h"
#include "src/support/eval_scratch.h"
#include "src/support/rng.h"

namespace dynbcast {

/// Per-process coverage: coverage[x] = |{y : x ∈ Heard(y)}|, the column
/// counts of the heard matrix (bit-sliced, like evaluateCandidate's).
/// Broadcast is done exactly when some coverage[x] == n.
[[nodiscard]] std::vector<std::size_t> coverageCounts(
    const BroadcastSim& state);

/// One-round damage assessment of a candidate tree, ordered so that
/// "smaller is better for the adversary" (lexicographic comparison).
///
/// The decisive field is the convex `potential` Σ_x 2^min(cov(x), 50):
/// every tree round raises SOMEONE's coverage, so max-coverage ties are
/// ubiquitous — but pushing the current leader (doubling the largest
/// term) is exponentially worse than spreading the same growth over
/// low-coverage processes, which is exactly the balanced structure exact
/// optimal play exhibits.
struct DelayScore {
  /// Candidate completes broadcast — the worst possible outcome.
  bool finishes = false;
  /// Convex coverage potential after the round (see above).
  double potential = 0.0;
  /// Highest coverage after the round (how close the best process is).
  std::size_t maxCoverage = 0;
  /// New product-graph edges created (the paper's progress measure).
  std::size_t newEdges = 0;

  friend bool operator<(const DelayScore& a, const DelayScore& b) {
    if (a.finishes != b.finishes) return !a.finishes;
    if (a.potential != b.potential) return a.potential < b.potential;
    if (a.maxCoverage != b.maxCoverage) return a.maxCoverage < b.maxCoverage;
    return a.newEdges < b.newEdges;
  }
};

/// Scores one candidate tree against the round-t heard state `heard`
/// (the snapshot) without mutating it. `coverage` must equal
/// coverageCounts of the same state, and `heard` must not be
/// scratch.heard.
///
/// The score depends on the tree's parent array alone. Each post-round
/// row reads only the snapshot, Heard'(y) = Heard(y) ∪ Heard(parent(y)),
/// so one pass in ascending y writes scratch.heard[y] and adds the
/// learned bits Heard(parent(y)) \ Heard(y) to newEdges (a popcount per
/// word) and to per-column counters (bit-sliced, a few word operations
/// per row word); each x's coverage then grows by the number of rows
/// that learned it. No BFS order is built and the snapshot is not copied
/// first; the result equals applying the tree in any node order, as
/// BroadcastSim does.
///
/// On return, scratch.heard holds the candidate's post-round heard
/// matrix and scratch.coverage its post-round coverage — callers that
/// keep a successor state (beam, lookahead) copy from there instead of
/// re-applying the tree. The rows of scratch.heard are sized on first
/// use at this n (EvalScratch::forProcessCount sizes them up front), so
/// a warm scratch allocates nothing.
[[nodiscard]] DelayScore evaluateCandidate(
    const std::vector<DynBitset>& heard,
    const std::vector<std::size_t>& coverage, const RootedTree& tree,
    EvalScratch& scratch);

/// evaluateCandidate(heard, coverage, makePath(order), scratch) without
/// building the tree: the path's parent array goes into
/// scratch.pathParent, under makePath's checks (order lists each of the
/// n processes exactly once; AssertionError otherwise). Same score, same
/// post-round scratch.heard and scratch.coverage.
[[nodiscard]] DelayScore evaluatePath(const std::vector<DynBitset>& heard,
                                      const std::vector<std::size_t>& coverage,
                                      const std::vector<std::size_t>& order,
                                      EvalScratch& scratch);

/// Path adversary that freezes the top-`depth` coverage leaders with
/// nested knower/non-knower blocks, applied as a STABLE partition of the
/// previous round's order (initially the identity). depth == 1 freezes
/// the single leader exactly; the stable partition keeps all other
/// relative positions, avoiding self-inflicted cascades.
class FreezePathAdversary final : public Adversary {
 public:
  FreezePathAdversary(std::size_t n, std::size_t depth);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;

 private:
  std::size_t n_;
  std::size_t depth_;
  std::vector<std::size_t> order_;
};

/// Delaying adversary restricted to brooms with a fixed handle length —
/// a member of BOTH restricted classes of [14]: a broom with handle h
/// has exactly h inner nodes and exactly n−h leaves. The handle is kept
/// in stable freeze order, so the adversary realizes the linear-in-n
/// delay its class admits (its static height is already h), giving the
/// benches a worst-case-shaped witness where random class members finish
/// in O(log n).
class FreezeBroomAdversary final : public Adversary {
 public:
  FreezeBroomAdversary(std::size_t n, std::size_t handleLen);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;

 private:
  std::size_t n_;
  std::size_t handleLen_;
  std::vector<std::size_t> order_;
};

/// Path adversary ordering nodes by |Heard| (ascending or descending) —
/// a natural but weaker baseline for the greedy comparison.
class HeardOrderPathAdversary final : public Adversary {
 public:
  HeardOrderPathAdversary(std::size_t n, bool ascending);

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override;

 private:
  std::size_t n_;
  bool ascending_;
};

/// Configuration for GreedyDelayAdversary's candidate pool.
struct GreedyDelayConfig {
  std::size_t freezeDepthMax = 4;  ///< stable freezes with depth 1..max
  std::size_t randomPaths = 3;     ///< random path candidates per round
  std::size_t randomTrees = 2;     ///< uniform random tree candidates
  std::size_t damageTreeRoots = 3; ///< damage-greedy trees per round
};

/// The portfolio-greedy delaying adversary: evaluates every candidate one
/// round ahead with evaluateCandidate and plays the minimum DelayScore.
/// Besides the configurable families above, the pool always holds the
/// unchanged previous path, its two rotations, both heard-size orders and
/// the broom over the primary freeze order. Keeps its path order across
/// rounds (stability, see header comment).
class GreedyDelayAdversary final : public Adversary {
 public:
  GreedyDelayAdversary(std::size_t n, std::uint64_t seed,
                       GreedyDelayConfig config = {});

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override { return "greedy-delay"; }
  void reset() override;

 private:
  std::size_t n_;
  std::uint64_t seed_;
  Rng rng_;
  GreedyDelayConfig config_;
  std::vector<std::size_t> order_;
  EvalScratch scratch_;  // reused across all candidate evaluations
};

// --- The move vocabulary -----------------------------------------------
//
// Every delaying adversary and witness search (greedy-delay,
// local-search, lookahead and the beam) builds its candidate pool from
// the helpers below, so a pool is a list of these moves and not a
// private copy of them. Ties go to the lowest process id unless stated
// otherwise; each pool's trees, and the order of its RNG draws, follow
// from these rules.

/// The order 0, 1, …, n−1: the carried path every adversary starts from.
[[nodiscard]] std::vector<std::size_t> identityOrder(std::size_t n);

/// The min(depth, n) processes of highest coverage, highest first; equal
/// coverage goes to the lower id first.
[[nodiscard]] std::vector<std::size_t> coverageLeaders(
    const std::vector<std::size_t>& coverage, std::size_t depth);

/// The process of least coverage (lowest id on ties): its information
/// is the safest to spread, so it roots a damage-greedy tree.
[[nodiscard]] std::size_t leastCoveredProcess(
    const std::vector<std::size_t>& coverage);

/// The process with the largest |Heard| (lowest id on ties): it gains
/// least by receiving, so it roots a damage-greedy tree.
[[nodiscard]] std::size_t mostInformedProcess(
    const std::vector<DynBitset>& heard);

/// All processes stably sorted by |Heard|, ascending or descending;
/// equal sizes keep ascending id order in both directions.
[[nodiscard]] std::vector<std::size_t> heardSizeOrder(
    const std::vector<DynBitset>& heard, bool ascending);

/// The convex coverage potential Σ_x 2^min(coverage[x], 50), summed in
/// ascending x from +0.0 — the same additions in the same order wherever
/// it is computed, so DelayScore::potential and the beam's frontier
/// potentials agree bit for bit.
[[nodiscard]] double coveragePotential(
    const std::vector<std::size_t>& coverage);

/// Builds the stable freeze ordering over `baseOrder`: every process that
/// knows leader x_1 is moved after everyone who does not, with nested
/// stable sub-partitions for x_2 … x_d; all other relative positions in
/// `baseOrder` are preserved. Takes the heard matrix (not a sim) so the
/// search adversaries can call it on their own state copies. Cost: d
/// stable partitions of n ids, one heard-bit test per id and leader.
[[nodiscard]] std::vector<std::size_t> freezeOrdering(
    const std::vector<DynBitset>& heard,
    const std::vector<std::size_t>& leaders,
    const std::vector<std::size_t>& baseOrder);

/// Damage-greedy trees: the balanced-coverage move family that exact
/// optimal play favors, built by greedy-delay, lookahead and the beam.
/// Exact optimal play uses general branching trees rather than paths,
/// and these mirror its structure.
///
/// The tree rooted at r is Prim's algorithm over the complete damage
/// graph of the state: cost(p → y) = Σ weight[x] over
/// x ∈ Heard(p) \ Heard(y), with weight[x] = 2^min(cov(x), 50), times
/// 1e6 when cov(x) ≥ n−1 (leaking a process one step from broadcast is
/// catastrophic). The root step assigns every cost without comparing;
/// each later step attaches the unattached y of least cost (strict <
/// in ascending y, so the lowest index wins a tie) and relaxes the rest
/// against it (strict <).
///
/// Exactness: every cost starts at +0.0 and receives its weights in
/// ascending x, the very IEEE additions a serial per-pair loop performs,
/// so every tree is bit-identical to that loop on every kernel tier,
/// plain or noisy. The speed comes from the order of work, not of
/// arithmetic: the heard matrix is transposed once per state, and each
/// relax (bitword::Kernels::damageRelax) adds weight[x] for
/// x ∈ Heard(pick) to all open y unaware of x at once, one lane per y.
///
/// RNG draws: noisy(root, amplitude, rng) with amplitude > 0 draws
/// exactly n rng.uniformReal() values, in ascending x, before Prim
/// starts, and scales weight[x] by 1 + amplitude·u_x. amplitude <= 0
/// draws nothing and builds the plain tree. Amplitudes must be finite
/// (validateBeamConfig enforces it), so every weight is ≥ 1 and never
/// NaN; a huge amplitude may overflow weights and costs to +inf, and the
/// pick rule treats +inf like any other cost (all-+inf picks the lowest
/// open y).
///
/// Cost: binding a state is one 64×64-block transpose of the heard
/// matrix (O(n²/64) words) plus n exp2 calls. A tree is n−1 relax calls
/// of about |Heard(pick)| · ⌈open/lanes⌉ vector additions: 8 lanes over
/// the packed open y of each 64-y block with AVX-512, 4 lanes up to the
/// highest open y with AVX2, and exactly the needed additions on the
/// scalar tier. There is no separate argmin scan: each relax call also
/// returns the next pick, a min over the costs it has just written,
/// with the same strict-< tie rule. That is O(n³/lanes) in the worst
/// case (measured per tree: `damageTree` in BENCH_kernels.json), and
/// nothing but the returned tree is allocated.
class DamageTrees {
 public:
  /// Binds scratch.damage to the state: transposes `heard` and derives
  /// the weights from `coverage`. `heard` must outlive this object
  /// unchanged. Every tree of the state reuses the binding, and
  /// evaluateCandidate on the same scratch leaves it intact; binding the
  /// same scratch again (another state) invalidates this object. `kernels`
  /// selects the relax tier (tests pin each tier; callers keep the
  /// process-wide dispatch).
  DamageTrees(const std::vector<DynBitset>& heard,
              const std::vector<std::size_t>& coverage, EvalScratch& scratch,
              const bitword::Kernels& kernels = bitword::dispatch());

  /// The damage-greedy tree rooted at `root`.
  [[nodiscard]] RootedTree greedy(std::size_t root);

  /// The tree over noisy weights (see "RNG draws" above), so repeated
  /// calls explore different balanced-coverage trees.
  [[nodiscard]] RootedTree noisy(std::size_t root, double amplitude,
                                 Rng& rng);

 private:
  [[nodiscard]] RootedTree build(std::size_t root, const double* weight);

  const std::vector<DynBitset>& heard_;
  EvalScratch::DamageBuffers& buf_;
  const bitword::Kernels& kernels_;
};

}  // namespace dynbcast
