#include "src/adversary/lookahead.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "src/adversary/search_tree.h"
#include "src/support/assert.h"
#include "src/support/hashing.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {

namespace {

/// Top-`depth` coverage leaders, highest first.
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

/// The structured move pool expanded at every search node; the damage
/// trees bind `scratch` (the node's own level) to the node's state.
std::vector<RootedTree> generateCandidates(
    const std::vector<DynBitset>& heard,
    const std::vector<std::size_t>& coverage,
    const std::vector<std::size_t>& baseOrder, Rng& rng,
    const LookaheadConfig& config, EvalScratch& scratch) {
  const std::size_t n = heard.size();
  std::vector<RootedTree> out;
  out.push_back(makePath(baseOrder));  // continuity move
  out.push_back(
      makePath(freezeOrdering(heard, topLeaders(coverage, 1), baseOrder)));
  out.push_back(
      makePath(freezeOrdering(heard, topLeaders(coverage, 2), baseOrder)));
  DamageTrees damageTrees(heard, coverage, scratch);
  // Damage-greedy roots: safest spreader and best-informed receiver.
  if (config.damageRoots >= 1) {
    const std::size_t minCov = static_cast<std::size_t>(
        std::min_element(coverage.begin(), coverage.end()) -
        coverage.begin());
    out.push_back(damageTrees.greedy(minCov));
  }
  if (config.damageRoots >= 2 && n >= 2) {
    std::size_t maxHeard = 0;
    for (std::size_t y = 1; y < n; ++y) {
      if (heard[y].count() > heard[maxHeard].count()) {
        maxHeard = y;
      }
    }
    out.push_back(damageTrees.greedy(maxHeard));
  }
  for (std::size_t extra = 2; extra < config.damageRoots; ++extra) {
    out.push_back(damageTrees.greedy(rng.uniform(n)));
  }
  for (std::size_t i = 0; i < config.randomMoves; ++i) {
    out.push_back(randomPath(n, rng));
  }
  return out;
}

struct Eval {
  std::size_t survived = 0;  // rounds the adversary lasts within horizon
  double potential = std::numeric_limits<double>::infinity();
};

bool betterForAdversary(const Eval& a, const Eval& b) {
  if (a.survived != b.survived) return a.survived > b.survived;
  return a.potential < b.potential;
}

/// Per-call transposition cache: (heard matrix, remaining depth) → Eval.
/// The table stores indices into `entries`, whose stored matrices back
/// the full-equality verification on every digest hit.
struct TtCache {
  struct Entry {
    std::vector<DynBitset> heard;
    std::size_t depth = 0;
    Eval eval;
  };
  TranspositionTable table{128};
  std::vector<Entry> entries;
};

/// One EvalScratch per recursion level: level d's post-move state must
/// stay alive as the heard/coverage input of level d+1 while that level
/// evaluates its own candidates into the next slot.
Eval search(const std::vector<DynBitset>& heard,
            const std::vector<std::size_t>& coverage,
            const std::vector<std::size_t>& baseOrder, Rng& rng,
            const LookaheadConfig& config, std::size_t depth,
            RootedTree* chosenOut, std::vector<EvalScratch>& arena,
            std::size_t level, TtCache* cache, LookaheadStats& stats) {
  ++stats.nodesVisited;
  // Interior nodes only: the root must still report its chosen move, and
  // it is the first node of a per-call table anyway.
  const bool cacheable = cache != nullptr && chosenOut == nullptr;
  std::uint64_t digest = 0;
  if (cacheable) {
    digest = hashCombine(hashHeardMatrix(heard), depth);
    const std::uint32_t found = cache->table.find(
        digest, [&](std::uint32_t payload) {
          const TtCache::Entry& e = cache->entries[payload];
          return e.depth == depth && e.heard == heard;
        });
    if (found != TranspositionTable::kNoPayload) {
      ++stats.transpositionHits;
      return cache->entries[found].eval;
    }
  }
  const std::vector<RootedTree> candidates = generateCandidates(
      heard, coverage, baseOrder, rng, config, arena[level]);

  Eval best;  // survived = 0, potential = inf: "every move finishes"
  const RootedTree* bestTree = &candidates.front();
  for (const RootedTree& candidate : candidates) {
    EvalScratch& scratch = arena[level];
    const DelayScore score =
        evaluateCandidate(heard, coverage, candidate, scratch);
    Eval eval;
    if (score.finishes || depth == 1) {
      eval.survived = score.finishes ? 0 : 1;
      eval.potential = score.potential;
    } else {
      // scratch.heard/coverage hold the candidate's post-move state; the
      // recursive call reads them while using arena[level + 1].
      const Eval sub =
          search(scratch.heard, scratch.coverage, baseOrder, rng, config,
                 depth - 1, nullptr, arena, level + 1, cache, stats);
      eval.survived = 1 + sub.survived;
      eval.potential = sub.potential;
    }
    if (betterForAdversary(eval, best)) {
      best = eval;
      bestTree = &candidate;
    }
  }
  if (cacheable) {
    const auto payload = static_cast<std::uint32_t>(cache->entries.size());
    const TranspositionTable::InsertResult ins = cache->table.insertOrFind(
        digest, payload, [&](std::uint32_t existing) {
          const TtCache::Entry& e = cache->entries[existing];
          return e.depth == depth && e.heard == heard;
        });
    if (ins.inserted) {
      cache->entries.push_back(TtCache::Entry{heard, depth, best});
    }
  }
  if (chosenOut != nullptr) *chosenOut = *bestTree;
  return best;
}

}  // namespace

LookaheadDelayAdversary::LookaheadDelayAdversary(std::size_t n,
                                                 std::uint64_t seed,
                                                 LookaheadConfig config)
    : n_(n), seed_(seed), rng_(seed), config_(config) {
  DYNBCAST_ASSERT(config_.depth >= 1);
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
}

void LookaheadDelayAdversary::reset() {
  rng_ = Rng(seed_);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  stats_ = LookaheadStats{};
}

RootedTree LookaheadDelayAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  const std::vector<std::size_t> coverage = coverageCounts(state);
  RootedTree chosen = makePath(order_);
  if (arena_.size() < config_.depth) {
    arena_.resize(config_.depth, EvalScratch::forProcessCount(n_));
  }
  TtCache cache;
  TtCache* cachePtr = config_.transposition ? &cache : nullptr;
  (void)search(state.heardMatrix(), coverage, order_, rng_, config_,
               config_.depth, &chosen, arena_, 0, cachePtr, stats_);
  // Carry path stability when the chosen move is a path.
  if (chosen.leafCount() == 1) {
    order_ = chosen.bfsOrder();
  }
  return chosen;
}

std::string LookaheadDelayAdversary::name() const {
  return "lookahead:depth=" + std::to_string(config_.depth);
}

}  // namespace dynbcast
