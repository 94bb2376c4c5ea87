#include "src/adversary/adaptive.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/support/assert.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {

std::vector<std::size_t> coverageCounts(const BroadcastSim& state) {
  const std::size_t n = state.processCount();
  std::vector<std::size_t> coverage(n, 0);
  for (std::size_t y = 0; y < n; ++y) {
    const DynBitset& h = state.heardBy(y);
    for (std::size_t x = h.findFirst(); x < n; x = h.findNext(x + 1)) {
      ++coverage[x];
    }
  }
  return coverage;
}

DelayScore evaluateCandidate(const std::vector<DynBitset>& heard,
                             const std::vector<std::size_t>& coverage,
                             const RootedTree& tree,
                             std::vector<std::size_t>* coverageOut) {
  EvalScratch scratch = EvalScratch::forProcessCount(heard.size());
  const DelayScore score = evaluateCandidate(heard, coverage, tree, scratch);
  if (coverageOut != nullptr) *coverageOut = std::move(scratch.coverage);
  return score;
}

DelayScore evaluateCandidate(const std::vector<DynBitset>& heard,
                             const std::vector<std::size_t>& coverage,
                             const RootedTree& tree, EvalScratch& scratch) {
  const std::size_t n = heard.size();
  DYNBCAST_ASSERT(tree.size() == n && coverage.size() == n);
  // Walk the tree in reverse BFS exactly like the simulator would, but
  // only materialize the deltas: for each node, the processes it newly
  // learns about bump their coverage. The delta is iterated straight off
  // the raw words ((parent & ~child) per word, ascending bits — the same
  // order the old findNext loop produced), so no temporary bitset exists.
  scratch.assignHeard(heard);
  scratch.coverage.assign(coverage.begin(), coverage.end());
  DelayScore score;
  tree.bfsOrderInto(scratch.order);
  const std::size_t nwords = n == 0 ? 0 : heard[0].wordCount();
  for (std::size_t i = scratch.order.size(); i-- > 0;) {
    const std::size_t y = scratch.order[i];
    const std::size_t p = tree.parent(y);
    if (p == y) continue;
    bitword::forEachInDifference(scratch.heard[p].wordData(),
                                 scratch.heard[y].wordData(), nwords,
                                 [&](std::size_t x) {
                                   ++scratch.coverage[x];
                                   ++score.newEdges;
                                 });
    scratch.heard[y].orWith(scratch.heard[p]);
  }
  for (const std::size_t c : scratch.coverage) {
    score.maxCoverage = std::max(score.maxCoverage, c);
    if (c == n) score.finishes = true;
    score.potential +=
        std::exp2(static_cast<double>(std::min<std::size_t>(c, 50)));
  }
  return score;
}

std::vector<std::size_t> freezeOrdering(
    const std::vector<DynBitset>& heard,
    const std::vector<std::size_t>& leaders,
    const std::vector<std::size_t>& baseOrder) {
  const std::size_t n = heard.size();
  DYNBCAST_ASSERT(baseOrder.size() == n);
  // Stable sort by the knower signature only: for the primary leader,
  // non-knowers strictly before knowers; ties resolved by the next
  // leader; everything else keeps its baseOrder position. std::stable_sort
  // delivers exactly that semantics.
  std::vector<std::size_t> order = baseOrder;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     for (const std::size_t x : leaders) {
                       const bool ka = heard[a].test(x);
                       const bool kb = heard[b].test(x);
                       if (ka != kb) return !ka;  // non-knowers first
                     }
                     return false;  // equal signature: keep stable order
                   });
  return order;
}

RootedTree buildDamageGreedyTree(const BroadcastSim& state,
                                 const std::vector<std::size_t>& coverage,
                                 std::size_t root) {
  EvalScratch scratch;
  return DamageTrees(state.heardMatrix(), coverage, scratch).greedy(root);
}

RootedTree buildNoisyDamageTree(const BroadcastSim& state,
                                const std::vector<std::size_t>& coverage,
                                std::size_t root, double amplitude,
                                Rng& rng) {
  EvalScratch scratch;
  return DamageTrees(state.heardMatrix(), coverage, scratch)
      .noisy(root, amplitude, rng);
}

namespace {

std::vector<std::size_t> identityOrder(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

/// Top-`depth` coverage leaders, highest coverage first (ties by id).
std::vector<std::size_t> topLeaders(const std::vector<std::size_t>& coverage,
                                    std::size_t depth) {
  std::vector<std::size_t> ids(coverage.size());
  std::iota(ids.begin(), ids.end(), std::size_t{0});
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

}  // namespace

FreezePathAdversary::FreezePathAdversary(std::size_t n, std::size_t depth)
    : n_(n), depth_(depth), order_(identityOrder(n)) {
  DYNBCAST_ASSERT(depth >= 1);
}

void FreezePathAdversary::reset() { order_ = identityOrder(n_); }

RootedTree FreezePathAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  const std::vector<std::size_t> coverage = coverageCounts(state);
  order_ = freezeOrdering(state.heardMatrix(), topLeaders(coverage, depth_),
                          order_);
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
  order_ = freezeOrdering(state.heardMatrix(), topLeaders(coverage, 2),
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
  std::vector<std::size_t> order = identityOrder(n_);
  std::vector<std::size_t> heardSize(n_);
  for (std::size_t y = 0; y < n_; ++y) {
    heardSize[y] = state.heardCount(y);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ascending_ ? heardSize[a] < heardSize[b]
                                       : heardSize[a] > heardSize[b];
                   });
  return makePath(order);
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
  if (config_.includePrevious) {
    orders.push_back(order_);
  }
  for (std::size_t d = 1; d <= config_.freezeDepthMax && d <= n_; ++d) {
    orders.push_back(freezeOrdering(heard, topLeaders(coverage, d), order_));
  }
  if (config_.includeRotations && n_ >= 2) {
    std::vector<std::size_t> headToTail(order_.begin() + 1, order_.end());
    headToTail.push_back(order_.front());
    orders.push_back(std::move(headToTail));
    std::vector<std::size_t> tailToHead{order_.back()};
    tailToHead.insert(tailToHead.end(), order_.begin(), order_.end() - 1);
    orders.push_back(std::move(tailToHead));
  }
  if (config_.includeHeardOrders) {
    HeardOrderPathAdversary asc(n_, true);
    HeardOrderPathAdversary desc(n_, false);
    orders.push_back(asc.nextTree(state).bfsOrder());
    orders.push_back(desc.nextTree(state).bfsOrder());
  }
  for (std::size_t i = 0; i < config_.randomPaths; ++i) {
    orders.push_back(rng_.permutation(n_));
  }

  std::vector<RootedTree> extraTrees;
  if (config_.includeBrooms && n_ >= 3) {
    // Broom over the primary freeze order: the knower block becomes the
    // bristles (they receive but feed nobody).
    const std::vector<std::size_t> freezeOrder =
        freezeOrdering(heard, topLeaders(coverage, 1), order_);
    const std::size_t leader = topLeaders(coverage, 1).front();
    std::size_t firstKnower = n_;
    for (std::size_t i = 0; i < n_; ++i) {
      if (state.heardBy(freezeOrder[i]).test(leader)) {
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
    // optimal play favors. Root picks: lowest-coverage process (its info
    // is safest to spread), highest-heard process (it gains nothing by
    // receiving anyway), plus random extras.
    std::vector<std::size_t> roots;
    roots.push_back(static_cast<std::size_t>(
        std::min_element(coverage.begin(), coverage.end()) -
        coverage.begin()));
    if (config_.damageTreeRoots >= 2) {
      std::size_t maxHeard = 0;
      for (std::size_t y = 1; y < n_; ++y) {
        if (state.heardCount(y) > state.heardCount(maxHeard)) maxHeard = y;
      }
      roots.push_back(maxHeard);
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
  // allocations per candidate once the buffers are warm.
  bool bestIsPath = true;
  std::size_t bestIdx = 0;
  DelayScore bestScore =
      evaluateCandidate(heard, coverage, makePath(orders[0]), scratch_);
  for (std::size_t i = 1; i < orders.size(); ++i) {
    const DelayScore s =
        evaluateCandidate(heard, coverage, makePath(orders[i]), scratch_);
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
