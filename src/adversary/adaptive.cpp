#include "src/adversary/adaptive.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "src/support/assert.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {

namespace {

/// Column counts of a stream of n-bit rows, bit-sliced: plane k of word
/// wi holds bit k of the running count of each of that word's 64
/// columns, so adding a row word is a short ripple of ANDs and XORs, not
/// one increment per set bit. Counts never exceed n rows, so
/// bit_width(n) planes cannot overflow.
class ColumnCounts {
 public:
  ColumnCounts(std::size_t n, std::vector<std::uint64_t>& planes)
      : n_(n), depth_(std::bit_width(n)), planes_(planes) {
    planes_.assign(((n + 63) / 64) * depth_, 0);
  }

  /// Adds one row's word wi to the counts of its 64 columns.
  void add(std::size_t wi, std::uint64_t word) noexcept {
    std::uint64_t* plane = planes_.data() + wi * depth_;
    for (std::uint64_t carry = word; carry != 0; ++plane) {
      const std::uint64_t next = *plane & carry;
      *plane ^= carry;
      carry = next;
    }
  }

  /// Adds every column's count to counts[x].
  void addTo(std::size_t* counts) const noexcept {
    for (std::size_t wi = 0; wi * 64 < n_; ++wi) {
      for (std::size_t k = 0; k < depth_; ++k) {
        for (std::uint64_t w = planes_[wi * depth_ + k]; w != 0; w &= w - 1) {
          counts[wi * 64 + static_cast<std::size_t>(std::countr_zero(w))] +=
              std::size_t{1} << k;
        }
      }
    }
  }

 private:
  std::size_t n_;
  std::size_t depth_;
  std::vector<std::uint64_t>& planes_;
};

/// The scoring core of evaluateCandidate and evaluatePath: `parent` is a
/// tree's parent array (parent[root] == root). Every row reads only the
/// round-t snapshot, Heard'(y) = Heard(y) ∪ Heard(parent(y)), so one pass
/// in ascending y gives the post-round state whatever the tree's shape.
DelayScore scoreParents(const std::vector<DynBitset>& heard,
                        const std::vector<std::size_t>& coverage,
                        const std::size_t* parent, EvalScratch& scratch) {
  const std::size_t n = heard.size();
  DYNBCAST_ASSERT(coverage.size() == n);
  DYNBCAST_ASSERT_MSG(&heard != &scratch.heard,
                      "the snapshot must not live in the scratch it fills");
  if (scratch.heard.size() != n) scratch.heard.resize(n);
  ColumnCounts fresh(n, scratch.columnPlanes);
  DelayScore score;
  for (std::size_t y = 0; y < n; ++y) {
    DynBitset& out = scratch.heard[y];
    if (out.size() != n) out = DynBitset(n);  // first use at this n
    const std::size_t p = parent[y];
    const std::uint64_t* own = heard[y].wordData();
    const std::uint64_t* from = heard[p].wordData();
    std::uint64_t* dst = out.wordData();
    for (std::size_t wi = 0; wi < out.wordCount(); ++wi) {
      // p == y (the root) learns nothing: learned is 0 and dst = own.
      const std::uint64_t learned = from[wi] & ~own[wi];
      dst[wi] = own[wi] | from[wi];
      score.newEdges += static_cast<std::size_t>(std::popcount(learned));
      fresh.add(wi, learned);
    }
  }
  scratch.coverage.assign(coverage.begin(), coverage.end());
  fresh.addTo(scratch.coverage.data());
  for (const std::size_t c : scratch.coverage) {
    score.maxCoverage = std::max(score.maxCoverage, c);
    if (c == n) score.finishes = true;
  }
  score.potential = coveragePotential(scratch.coverage);
  return score;
}

}  // namespace

std::vector<std::size_t> coverageCounts(const BroadcastSim& state) {
  const std::size_t n = state.processCount();
  std::vector<std::uint64_t> planes;
  ColumnCounts columns(n, planes);
  for (std::size_t y = 0; y < n; ++y) {
    const DynBitset& h = state.heardBy(y);
    for (std::size_t wi = 0; wi < h.wordCount(); ++wi) {
      columns.add(wi, h.wordData()[wi]);
    }
  }
  std::vector<std::size_t> coverage(n, 0);
  columns.addTo(coverage.data());
  return coverage;
}

DelayScore evaluateCandidate(const std::vector<DynBitset>& heard,
                             const std::vector<std::size_t>& coverage,
                             const RootedTree& tree, EvalScratch& scratch) {
  DYNBCAST_ASSERT(tree.size() == heard.size());
  return scoreParents(heard, coverage, tree.parents().data(), scratch);
}

DelayScore evaluatePath(const std::vector<DynBitset>& heard,
                        const std::vector<std::size_t>& coverage,
                        const std::vector<std::size_t>& order,
                        EvalScratch& scratch) {
  DYNBCAST_ASSERT_MSG(order.size() == heard.size(),
                      "order must list every process once");
  pathParentsInto(order, scratch.pathParent);
  return scoreParents(heard, coverage, scratch.pathParent.data(), scratch);
}

std::vector<std::size_t> identityOrder(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

std::vector<std::size_t> coverageLeaders(
    const std::vector<std::size_t>& coverage, std::size_t depth) {
  std::vector<std::size_t> ids = identityOrder(coverage.size());
  const std::size_t take = std::min(depth, ids.size());
  std::partial_sort(ids.begin(),
                    ids.begin() + static_cast<std::ptrdiff_t>(take),
                    ids.end(), [&](std::size_t a, std::size_t b) {
                      if (coverage[a] != coverage[b]) {
                        return coverage[a] > coverage[b];
                      }
                      return a < b;
                    });
  ids.resize(take);
  return ids;
}

std::size_t leastCoveredProcess(const std::vector<std::size_t>& coverage) {
  return static_cast<std::size_t>(
      std::min_element(coverage.begin(), coverage.end()) - coverage.begin());
}

std::size_t mostInformedProcess(const std::vector<DynBitset>& heard) {
  std::size_t best = 0;
  for (std::size_t y = 1; y < heard.size(); ++y) {
    if (heard[y].count() > heard[best].count()) best = y;
  }
  return best;
}

std::vector<std::size_t> heardSizeOrder(const std::vector<DynBitset>& heard,
                                        bool ascending) {
  std::vector<std::size_t> heardSize(heard.size());
  for (std::size_t y = 0; y < heard.size(); ++y) {
    heardSize[y] = heard[y].count();
  }
  std::vector<std::size_t> order = identityOrder(heard.size());
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ascending ? heardSize[a] < heardSize[b]
                                      : heardSize[a] > heardSize[b];
                   });
  return order;
}

double coveragePotential(const std::vector<std::size_t>& coverage) {
  double potential = 0.0;
  for (const std::size_t c : coverage) {
    potential += std::exp2(static_cast<double>(std::min<std::size_t>(c, 50)));
  }
  return potential;
}

std::vector<std::size_t> freezeOrdering(
    const std::vector<DynBitset>& heard,
    const std::vector<std::size_t>& leaders,
    const std::vector<std::size_t>& baseOrder) {
  const std::size_t n = heard.size();
  DYNBCAST_ASSERT(baseOrder.size() == n);
  // The order is a stable sort by the knower signature (non-knowers of
  // x_1 first, ties broken by x_2, …, then baseOrder). Sorting on one
  // leader at a time, last leader first, with a stable partition each
  // (non-knowers keep their places in front, knowers follow in order) is
  // that same sort, least significant key first.
  std::vector<std::size_t> order = baseOrder;
  std::vector<std::size_t> knowers;
  knowers.reserve(n);
  for (auto x = leaders.rbegin(); x != leaders.rend(); ++x) {
    knowers.clear();
    std::size_t kept = 0;
    for (const std::size_t y : order) {  // writes trail the reads
      if (heard[y].test(*x)) {
        knowers.push_back(y);
      } else {
        order[kept++] = y;
      }
    }
    std::copy(knowers.begin(), knowers.end(),
              order.begin() + static_cast<std::ptrdiff_t>(kept));
  }
  return order;
}

FreezePathAdversary::FreezePathAdversary(std::size_t n, std::size_t depth)
    : n_(n), depth_(depth), order_(identityOrder(n)) {
  DYNBCAST_ASSERT(depth >= 1);
}

void FreezePathAdversary::reset() { order_ = identityOrder(n_); }

RootedTree FreezePathAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  const std::vector<std::size_t> coverage = coverageCounts(state);
  order_ = freezeOrdering(state.heardMatrix(),
                          coverageLeaders(coverage, depth_), order_);
  return makePath(order_);
}

std::string FreezePathAdversary::name() const {
  return "freeze-path:depth=" + std::to_string(depth_);
}

FreezeBroomAdversary::FreezeBroomAdversary(std::size_t n,
                                           std::size_t handleLen)
    : n_(n), handleLen_(handleLen), order_(identityOrder(n)) {
  DYNBCAST_ASSERT(handleLen >= 1 && handleLen <= n);
}

void FreezeBroomAdversary::reset() { order_ = identityOrder(n_); }

RootedTree FreezeBroomAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  const std::vector<std::size_t> coverage = coverageCounts(state);
  order_ = freezeOrdering(state.heardMatrix(), coverageLeaders(coverage, 2),
                          order_);
  return makeBroom(order_, handleLen_);
}

std::string FreezeBroomAdversary::name() const {
  return "freeze-broom:handle=" + std::to_string(handleLen_);
}

HeardOrderPathAdversary::HeardOrderPathAdversary(std::size_t n,
                                                 bool ascending)
    : n_(n), ascending_(ascending) {}

RootedTree HeardOrderPathAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  return makePath(heardSizeOrder(state.heardMatrix(), ascending_));
}

std::string HeardOrderPathAdversary::name() const {
  return ascending_ ? "heard-asc-path" : "heard-desc-path";
}

GreedyDelayAdversary::GreedyDelayAdversary(std::size_t n, std::uint64_t seed,
                                           GreedyDelayConfig config)
    : n_(n),
      seed_(seed),
      rng_(seed),
      config_(config),
      order_(identityOrder(n)),
      scratch_(EvalScratch::forProcessCount(n)) {}

void GreedyDelayAdversary::reset() {
  rng_ = Rng(seed_);
  order_ = identityOrder(n_);
}

RootedTree GreedyDelayAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  const std::vector<std::size_t> coverage = coverageCounts(state);
  const std::vector<DynBitset>& heard = state.heardMatrix();

  // Candidate orders (paths); trees that are not plain paths are kept in
  // a separate list so the winning PATH can seed next round's stability.
  std::vector<std::vector<std::size_t>> orders;
  orders.push_back(order_);
  for (std::size_t d = 1; d <= config_.freezeDepthMax && d <= n_; ++d) {
    orders.push_back(
        freezeOrdering(heard, coverageLeaders(coverage, d), order_));
  }
  if (n_ >= 2) {
    std::vector<std::size_t> headToTail(order_.begin() + 1, order_.end());
    headToTail.push_back(order_.front());
    orders.push_back(std::move(headToTail));
    std::vector<std::size_t> tailToHead{order_.back()};
    tailToHead.insert(tailToHead.end(), order_.begin(), order_.end() - 1);
    orders.push_back(std::move(tailToHead));
  }
  orders.push_back(heardSizeOrder(heard, true));
  orders.push_back(heardSizeOrder(heard, false));
  for (std::size_t i = 0; i < config_.randomPaths; ++i) {
    orders.push_back(rng_.permutation(n_));
  }

  std::vector<RootedTree> extraTrees;
  if (n_ >= 3) {
    // Broom over the primary freeze order: the knower block becomes the
    // bristles (they receive but feed nobody).
    const std::vector<std::size_t> leaders = coverageLeaders(coverage, 1);
    const std::vector<std::size_t> freezeOrder =
        freezeOrdering(heard, leaders, order_);
    std::size_t firstKnower = n_;
    for (std::size_t i = 0; i < n_; ++i) {
      if (heard[freezeOrder[i]].test(leaders.front())) {
        firstKnower = i;
        break;
      }
    }
    if (firstKnower >= 2 && firstKnower < n_) {
      extraTrees.push_back(makeBroom(freezeOrder, firstKnower));
    }
  }
  for (std::size_t i = 0; i < config_.randomTrees; ++i) {
    extraTrees.push_back(randomRootedTree(n_, rng_));
  }
  if (config_.damageTreeRoots > 0) {
    // Damage-greedy trees: the balanced-coverage move family that exact
    // optimal play favors, rooted at the least-covered process, the most
    // informed one, then random extras.
    std::vector<std::size_t> roots{leastCoveredProcess(coverage)};
    if (config_.damageTreeRoots >= 2) {
      roots.push_back(mostInformedProcess(heard));
    }
    while (roots.size() < config_.damageTreeRoots) {
      roots.push_back(rng_.uniform(n_));
    }
    DamageTrees damageTrees(heard, coverage, scratch_);
    for (const std::size_t r : roots) {
      extraTrees.push_back(damageTrees.greedy(r));
    }
  }

  // Evaluate everything; prefer path candidates on ties (stability).
  // All evaluations share the adversary's scratch arena — zero
  // allocations per candidate once the buffers are warm — and a path is
  // scored from its order, so only the winner becomes a RootedTree.
  bool bestIsPath = true;
  std::size_t bestIdx = 0;
  DelayScore bestScore = evaluatePath(heard, coverage, orders[0], scratch_);
  for (std::size_t i = 1; i < orders.size(); ++i) {
    const DelayScore s = evaluatePath(heard, coverage, orders[i], scratch_);
    if (s < bestScore) {
      bestScore = s;
      bestIdx = i;
    }
  }
  for (std::size_t i = 0; i < extraTrees.size(); ++i) {
    const DelayScore s =
        evaluateCandidate(heard, coverage, extraTrees[i], scratch_);
    if (s < bestScore) {
      bestScore = s;
      bestIdx = i;
      bestIsPath = false;
    }
  }
  if (bestIsPath) {
    order_ = orders[bestIdx];
    return makePath(order_);
  }
  return extraTrees[bestIdx];
}

}  // namespace dynbcast
