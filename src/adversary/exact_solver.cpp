#include "src/adversary/exact_solver.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/support/assert.h"
#include "src/support/hashing.h"
#include "src/tree/enumerate.h"

namespace dynbcast {

namespace {

/// Orbit-scan abort threshold: a state whose invariant partition still
/// admits more permutations than this is left un-canonicalized. Sound —
/// the memo merely merges fewer equivalent states.
constexpr std::uint64_t kMaxOrbitPerms = 1'000'000;
/// Successor-count ceiling for the dominance filter (it is quadratic,
/// and near-symmetric states can have millions of pairwise-incomparable
/// successors that the filter would scan for nothing).
constexpr std::size_t kDominanceLimit = 2048;

/// Row-array state: row y = Heard(y) as an 8-bit mask; rows >= n are 0.
using Row = std::uint8_t;
using Rows = std::array<Row, ExactSolver::kMaxN>;
static_assert(sizeof(Rows) == sizeof(std::uint64_t));

struct RowsHash {
  std::size_t operator()(const Rows& r) const noexcept {
    return static_cast<std::size_t>(hashMix(std::bit_cast<std::uint64_t>(r)));
  }
};

Rows identityRows(std::size_t n) {
  Rows s{};
  for (std::size_t y = 0; y < n; ++y) {
    s[y] = static_cast<Row>(1u << y);
  }
  return s;
}

Rows applyParents(const Rows& s, const std::uint8_t* parents,
                  std::size_t n) {
  Rows out = s;
  for (std::size_t y = 0; y < n; ++y) {
    out[y] = static_cast<Row>(out[y] | s[parents[y]]);
  }
  return out;
}

bool isBroadcastRows(const Rows& s, std::size_t n) {
  Row common = s[0];
  for (std::size_t y = 1; y < n && common != 0; ++y) {
    common = static_cast<Row>(common & s[y]);
  }
  return common != 0;
}

std::size_t totalBits(const Rows& s, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t y = 0; y < n; ++y) {
    total += static_cast<std::size_t>(std::popcount(s[y]));
  }
  return total;
}

/// True when a is a row-wise subset of b (a has heard no more than b).
bool subsetRows(const Rows& a, const Rows& b, std::size_t n) {
  for (std::size_t y = 0; y < n; ++y) {
    if ((a[y] & ~b[y]) != 0) return false;
  }
  return true;
}

// --- Orbit-pruned canonicalization -----------------------------------------
//
// Exact canonicalization under simultaneous row/column permutation: the
// minimum encoding over all relabelings. Scanning all n! permutations is
// the historical bottleneck, so the scan is restricted to permutations
// respecting an invariant partition: nodes are first split by
// (|Heard(v)|, coverage(v)) and the partition is refined twice with the
// signature multisets of each node's heard-set and audience. Signatures
// are functions of relabeling-invariant data only, so equivalent states
// produce identical cell structures and the constrained minima coincide
// — while most mid-game states refine to all-singleton cells, where the
// scan degenerates to a single permutation.

/// Per-cell permutation enumerator: cells (each sorted ascending) own
/// consecutive position blocks; every within-cell arrangement is tried.
struct OrbitScan {
  const Rows& s;
  std::size_t n;
  const std::vector<std::vector<std::uint8_t>>& cells;
  const std::vector<std::uint8_t>& offsets;
  std::array<std::uint8_t, ExactSolver::kMaxN> perm{};
  Rows best{};
  bool haveBest = false;

  void run(std::size_t ci) {
    if (ci == cells.size()) {
      consider();
      return;
    }
    std::vector<std::uint8_t> arr = cells[ci];
    const std::uint8_t off = offsets[ci];
    do {
      for (std::size_t i = 0; i < arr.size(); ++i) {
        perm[arr[i]] = static_cast<std::uint8_t>(off + i);
      }
      run(ci + 1);
    } while (std::next_permutation(arr.begin(), arr.end()));
  }

  void consider() {
    Rows out{};
    for (std::size_t y = 0; y < n; ++y) {
      Row bits = s[y];
      Row img = 0;
      while (bits != 0) {
        const unsigned x = static_cast<unsigned>(std::countr_zero(bits));
        img = static_cast<Row>(img | (1u << perm[x]));
        bits = static_cast<Row>(bits & (bits - 1));
      }
      out[perm[y]] = img;
    }
    if (!haveBest || out < best) {
      best = out;
      haveBest = true;
    }
  }
};

Rows canonicalRows(const Rows& s, std::size_t n) {
  // Base signatures: (|row|, |column|) per node.
  std::array<std::uint8_t, ExactSolver::kMaxN> colCount{};
  for (std::size_t y = 0; y < n; ++y) {
    Row bits = s[y];
    while (bits != 0) {
      ++colCount[static_cast<unsigned>(std::countr_zero(bits))];
      bits = static_cast<Row>(bits & (bits - 1));
    }
  }
  std::array<std::uint64_t, ExactSolver::kMaxN> sig{};
  for (std::size_t v = 0; v < n; ++v) {
    sig[v] = hashCombine(hashMix(std::popcount(s[v]) + 1u), colCount[v]);
  }
  // Two refinement rounds over heard-set and audience signatures.
  std::array<std::uint64_t, ExactSolver::kMaxN> next{};
  std::vector<std::uint64_t> neigh;
  neigh.reserve(n);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t v = 0; v < n; ++v) {
      std::uint64_t h = hashMix(sig[v]);
      neigh.clear();
      Row bits = s[v];
      while (bits != 0) {
        neigh.push_back(sig[static_cast<unsigned>(std::countr_zero(bits))]);
        bits = static_cast<Row>(bits & (bits - 1));
      }
      std::sort(neigh.begin(), neigh.end());
      for (const std::uint64_t t : neigh) h = hashCombine(h, t);
      h = hashMix(h ^ 0xabcdef0123456789ull);
      neigh.clear();
      for (std::size_t x = 0; x < n; ++x) {
        if ((s[x] >> v) & 1u) neigh.push_back(sig[x]);
      }
      std::sort(neigh.begin(), neigh.end());
      for (const std::uint64_t t : neigh) h = hashCombine(h, t);
      next[v] = h;
    }
    sig = next;
  }
  // Cells: nodes grouped by signature, cell order by signature value.
  std::array<std::uint8_t, ExactSolver::kMaxN> order{};
  for (std::size_t v = 0; v < n; ++v) order[v] = static_cast<std::uint8_t>(v);
  std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(n),
            [&](std::uint8_t a, std::uint8_t b) {
              if (sig[a] != sig[b]) return sig[a] < sig[b];
              return a < b;
            });
  std::vector<std::vector<std::uint8_t>> cells;
  std::vector<std::uint8_t> offsets;
  std::uint64_t perms = 1;
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j < n && sig[order[j]] == sig[order[i]]) ++j;
    offsets.push_back(static_cast<std::uint8_t>(i));
    cells.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(i),
                       order.begin() + static_cast<std::ptrdiff_t>(j));
    for (std::size_t k = 2; k <= j - i; ++k) {
      perms *= k;
      if (perms > kMaxOrbitPerms) return s;  // bail: see kMaxOrbitPerms
    }
    i = j;
  }
  OrbitScan scan{s, n, cells, offsets};
  scan.run(0);
  return scan.best;
}

// --- Exhaustive machinery ---------------------------------------------------

/// The full move pool as flat parent bytes (n per tree).
struct MovePool {
  std::size_t n = 0;
  std::size_t count = 0;
  std::vector<std::uint8_t> parents;

  void build(std::size_t n_) {
    n = n_;
    parents.reserve(static_cast<std::size_t>(rootedTreeCount(n)) * n);
    forEachRootedTree(n, [&](const RootedTree& t) {
      for (std::size_t y = 0; y < n; ++y) {
        parents.push_back(static_cast<std::uint8_t>(t.parents()[y]));
      }
      ++count;
      return true;
    });
  }

  const std::uint8_t* operator[](std::size_t m) const {
    return parents.data() + m * n;
  }

  RootedTree tree(std::size_t m) const {
    const std::uint8_t* p = (*this)[m];
    std::vector<std::size_t> par(n);
    std::size_t root = 0;
    for (std::size_t y = 0; y < n; ++y) {
      par[y] = p[y];
      if (par[y] == y) root = y;
    }
    return RootedTree(root, std::move(par));
  }
};

/// Shared machinery between solve() and optimalPlay(): the move pool,
/// the canonical-state memo, and the dominance filter.
struct SolveContext {
  std::size_t n = 0;
  bool canonicalize = false;
  std::size_t depthCap = 0;
  MovePool pool;
  std::unordered_map<Rows, std::size_t, RowsHash> memo;
  std::uint64_t successorsExpanded = 0;
  std::uint64_t dominatedPruned = 0;

  SolveContext(std::size_t n_, const ExactOptions& options)
      : n(n_), canonicalize(options.canonicalize) {
    depthCap = options.depthCap != 0 ? options.depthCap : n * n;
    pool.build(n);
  }

  Rows canonical(const Rows& s) const {
    return canonicalize ? canonicalRows(s, n) : s;
  }

  /// Game value of a (canonical) non-broadcast state: the largest number
  /// of further rounds the adversary can force.
  std::size_t value(const Rows& state, std::size_t depth) {
    const auto it = memo.find(state);
    if (it != memo.end()) return it->second;
    DYNBCAST_ASSERT_MSG(depth < depthCap,
                        "exceeded depth cap: monotone progress violated?");
    // Distinct successors only: many trees induce the same transition
    // from a given state.
    std::vector<Rows> succ;
    succ.reserve(pool.count);
    for (std::size_t m = 0; m < pool.count; ++m) {
      succ.push_back(applyParents(state, pool[m], n));
    }
    std::sort(succ.begin(), succ.end());
    succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
    // Row-wise dominance: the value is antitone under ⊆ (a state that
    // has heard more is closer to broadcast), so successors that are
    // supersets of another successor cannot carry the max.
    if (succ.size() > 1 && succ.size() <= kDominanceLimit) {
      std::stable_sort(succ.begin(), succ.end(),
                       [&](const Rows& a, const Rows& b) {
                         return totalBits(a, n) < totalBits(b, n);
                       });
      std::vector<Rows> kept;
      kept.reserve(succ.size());
      for (const Rows& cand : succ) {
        bool dominated = false;
        for (const Rows& k : kept) {
          if (subsetRows(k, cand, n)) {
            dominated = true;
            break;
          }
        }
        if (!dominated) kept.push_back(cand);
      }
      dominatedPruned += succ.size() - kept.size();
      succ = std::move(kept);
    }
    std::size_t best = 0;
    std::unordered_set<Rows, RowsHash> canonicalSeen;
    canonicalSeen.reserve(succ.size());
    for (const Rows& raw : succ) {
      const Rows next = canonical(raw);
      if (!canonicalSeen.insert(next).second) continue;
      ++successorsExpanded;
      const std::size_t v =
          isBroadcastRows(next, n) ? 1 : 1 + value(next, depth + 1);
      best = std::max(best, v);
    }
    memo.emplace(state, best);
    return best;
  }

  /// Value of an arbitrary (raw) state via the canonical memo.
  std::size_t valueOf(const Rows& raw, std::size_t depth) {
    if (isBroadcastRows(raw, n)) return 0;
    return value(canonical(raw), depth);
  }
};

}  // namespace

ExactSolver::ExactSolver(std::size_t n, ExactOptions options)
    : n_(n), options_(options) {
  DYNBCAST_ASSERT_MSG(n >= 2 && n <= kMaxN,
                      "ExactSolver supports 2 <= n <= " +
                          std::to_string(kMaxN));
}

ExactResult ExactSolver::solve() {
  SolveContext ctx(n_, options_);
  ExactResult result;
  result.tStar = ctx.valueOf(identityRows(n_), 0);
  result.statesMemoized = ctx.memo.size();
  result.successorsExpanded = ctx.successorsExpanded;
  result.dominatedPruned = ctx.dominatedPruned;
  return result;
}

std::vector<RootedTree> ExactSolver::optimalPlay() {
  SolveContext ctx(n_, options_);
  Rows state = identityRows(n_);
  std::size_t remaining = ctx.valueOf(state, 0);

  std::vector<RootedTree> play;
  play.reserve(remaining);
  std::size_t depth = 0;
  while (remaining > 0) {
    // Pick any move whose successor preserves the game value.
    bool found = false;
    for (std::size_t m = 0; m < ctx.pool.count; ++m) {
      const Rows next = applyParents(state, ctx.pool[m], n_);
      const std::size_t v = ctx.valueOf(next, depth + 1);
      if (v + 1 == remaining) {
        play.push_back(ctx.pool.tree(m));
        state = next;
        remaining = v;
        found = true;
        break;
      }
    }
    DYNBCAST_ASSERT_MSG(found, "no value-preserving move: memo corrupt?");
    ++depth;
  }
  DYNBCAST_ASSERT(isBroadcastRows(state, n_));
  return play;
}

}  // namespace dynbcast
