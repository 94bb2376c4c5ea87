#include "src/adversary/lookahead.h"

#include <limits>
#include <utility>

#include "src/adversary/search_tree.h"
#include "src/support/assert.h"
#include "src/support/hashing.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {

namespace {

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
  for (std::size_t depth = 1; depth <= 2; ++depth) {
    out.push_back(makePath(
        freezeOrdering(heard, coverageLeaders(coverage, depth), baseOrder)));
  }
  DamageTrees damageTrees(heard, coverage, scratch);
  // Damage-greedy roots: safest spreader and best-informed receiver.
  if (config.damageRoots >= 1) {
    out.push_back(damageTrees.greedy(leastCoveredProcess(coverage)));
  }
  if (config.damageRoots >= 2 && n >= 2) {
    out.push_back(damageTrees.greedy(mostInformedProcess(heard)));
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
            std::size_t level, TtCache& cache, LookaheadStats& stats) {
  ++stats.nodesVisited;
  // Interior nodes only: the root must still report its chosen move, and
  // it is the first node of a per-call table anyway.
  const bool cacheable = chosenOut == nullptr;
  std::uint64_t digest = 0;
  if (cacheable) {
    digest = hashCombine(hashHeardMatrix(heard), depth);
    const std::uint32_t found = cache.table.find(
        digest, [&](std::uint32_t payload) {
          const TtCache::Entry& e = cache.entries[payload];
          return e.depth == depth && e.heard == heard;
        });
    if (found != TranspositionTable::kNoPayload) {
      ++stats.transpositionHits;
      return cache.entries[found].eval;
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
    const auto payload = static_cast<std::uint32_t>(cache.entries.size());
    const TranspositionTable::InsertResult ins = cache.table.insertOrFind(
        digest, payload, [&](std::uint32_t existing) {
          const TtCache::Entry& e = cache.entries[existing];
          return e.depth == depth && e.heard == heard;
        });
    if (ins.inserted) {
      cache.entries.push_back(TtCache::Entry{heard, depth, best});
    }
  }
  if (chosenOut != nullptr) *chosenOut = *bestTree;
  return best;
}

}  // namespace

LookaheadDelayAdversary::LookaheadDelayAdversary(std::size_t n,
                                                 std::uint64_t seed,
                                                 LookaheadConfig config)
    : n_(n), seed_(seed), rng_(seed), config_(config),
      order_(identityOrder(n)) {
  DYNBCAST_ASSERT(config_.depth >= 1);
}

void LookaheadDelayAdversary::reset() {
  rng_ = Rng(seed_);
  order_ = identityOrder(n_);
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
  (void)search(state.heardMatrix(), coverage, order_, rng_, config_,
               config_.depth, &chosen, arena_, 0, cache, stats_);
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
