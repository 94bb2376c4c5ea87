#include "src/sim/frontier_sim.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "src/support/assert.h"
#include "src/support/rng.h"

namespace dynbcast {

void assignArcs(std::size_t n, const std::vector<Arc>& pairs,
                SparseRound& out) {
  DYNBCAST_ASSERT_MSG(pairs.size() <= std::numeric_limits<std::uint32_t>::max(),
                      "a round's arcs must fit u32 offsets");
  std::vector<std::uint32_t>& offsets = out.offsets;
  offsets.assign(n + 1, 0);
  for (const auto& [x, y] : pairs) {
    DYNBCAST_ASSERT_MSG(x < n, "arc source out of range");
    if (x != y) ++offsets[x + 1];
  }
  // offsets[x + 1] becomes x's first slot; the scatter below advances
  // it to x's end, which is (x + 1)'s first slot.
  std::uint32_t start = 0;
  for (std::size_t x = 0; x < n; ++x) {
    const std::uint32_t count = offsets[x + 1];
    offsets[x + 1] = start;
    start += count;
  }
  out.arcs.resize(start);
  for (const auto& [x, y] : pairs) {
    if (x != y) out.arcs[offsets[x + 1]++] = y;
  }
}

namespace {

/// Asserts the SparseRound shape every pass below indexes by: n + 1
/// nondecreasing offsets from 0 to arcs.size(), and every head a node.
void checkRoundShape(std::size_t n, const SparseRound& round) {
  const std::vector<std::uint32_t>& offsets = round.offsets;
  DYNBCAST_ASSERT_MSG(offsets.size() == n + 1,
                      "a round needs n + 1 offsets");
  DYNBCAST_ASSERT_MSG(
      round.arcs.size() <= std::numeric_limits<std::uint32_t>::max(),
      "a round's arcs must fit u32 offsets");
  DYNBCAST_ASSERT_MSG(offsets[0] == 0 && offsets[n] == round.arcs.size(),
                      "round offsets must run from 0 to the arc count");
  bool decreasing = false;
  for (std::size_t x = 0; x < n; ++x) {
    decreasing |= offsets[x + 1] < offsets[x];
  }
  DYNBCAST_ASSERT_MSG(!decreasing, "round offsets must be nondecreasing");
  std::uint32_t maxHead = 0;
  for (const std::uint32_t y : round.arcs) maxHead = std::max(maxHead, y);
  DYNBCAST_ASSERT_MSG(round.arcs.empty() || maxHead < n,
                      "arc head out of range");
}

/// Serves round t (1-based) from a cache of pulled rounds while they fit
/// the budget, else by replaying the source from reset() — the latter
/// keeps the mode exact with O(n) memory at the price of O(t)
/// regeneration per backward step. An uncached round is the source's
/// own, valid until the next pull.
class RoundReplayer {
 public:
  RoundReplayer(std::size_t n, SparseRoundSource& source,
                std::size_t budgetArcs)
      : n_(n), source_(source), budgetArcs_(budgetArcs) {}

  const SparseRound& round(std::size_t t) {
    DYNBCAST_ASSERT_MSG(t >= 1, "rounds are 1-based");
    if (t <= cache_.size()) return cache_[t - 1];
    if (generated_ >= t) {
      source_.reset();
      generated_ = 0;
    }
    while (generated_ < t) {
      last_ = &source_.next();
      ++generated_;
      checkRoundShape(n_, *last_);
      if (caching_ && generated_ == cache_.size() + 1) {
        const std::size_t units = last_->offsets.size() + last_->arcs.size();
        if (cachedUnits_ + units <= budgetArcs_) {
          cachedUnits_ += units;
          cache_.push_back(*last_);
        } else {
          caching_ = false;
        }
      }
    }
    return *last_;
  }

 private:
  std::size_t n_;
  SparseRoundSource& source_;
  std::size_t budgetArcs_;
  std::vector<SparseRound> cache_;
  std::size_t cachedUnits_ = 0;
  bool caching_ = true;
  const SparseRound* last_ = nullptr;  // the round pulled last
  std::size_t generated_ = 0;          // rounds pulled since the last reset
};

/// The low `count` bits set (count ≤ 64): one bit per sampled node.
[[nodiscard]] constexpr std::uint64_t allBits(std::size_t count) {
  return count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
}

/// k distinct ids from [0, n) (Floyd's sampling when k < n).
std::vector<std::uint32_t> pickDistinct(std::size_t n, std::size_t k,
                                        Rng& rng) {
  std::vector<std::uint32_t> out;
  out.reserve(k);
  if (k >= n) {
    out.resize(n);
    std::iota(out.begin(), out.end(), 0u);
    return out;
  }
  std::unordered_set<std::uint32_t> chosen;
  for (std::size_t j = n - k; j < n; ++j) {
    const auto r = static_cast<std::uint32_t>(rng.uniform(j + 1));
    if (chosen.insert(r).second) {
      out.push_back(r);
    } else {
      chosen.insert(static_cast<std::uint32_t>(j));
      out.push_back(static_cast<std::uint32_t>(j));
    }
  }
  return out;
}

/// Forward word-propagation of `sources` (bit j ↔ sources[j]) over
/// rounds [1, limit]. Returns the first round at which some source has
/// been heard by all n nodes — a bit set in every word — or 0 when none
/// completes. `cover` holds the final words either way. A source that
/// has heard nothing yet sends nothing, so its arcs are skipped.
std::size_t forwardCompletionRound(std::size_t n,
                                   const std::vector<std::uint32_t>& sources,
                                   std::size_t limit, RoundReplayer& rounds,
                                   std::vector<std::uint64_t>& cover,
                                   std::vector<std::uint64_t>& prev) {
  std::fill(cover.begin(), cover.end(), std::uint64_t{0});
  for (std::size_t j = 0; j < sources.size(); ++j) {
    cover[sources[j]] |= std::uint64_t{1} << j;
  }
  for (std::size_t t = 1; t <= limit; ++t) {
    const SparseRound& g = rounds.round(t);
    std::copy(cover.begin(), cover.end(), prev.begin());
    for (std::size_t x = 0; x < n; ++x) {
      const std::uint64_t from = prev[x];
      if (from == 0) continue;
      for (std::uint32_t k = g.offsets[x]; k < g.offsets[x + 1]; ++k) {
        cover[g.arcs[k]] |= from;
      }
    }
    std::uint64_t heardByAll = ~std::uint64_t{0};
    for (std::size_t y = 0; y < n && heardByAll != 0; ++y) {
      heardByAll &= cover[y];
    }
    if (heardByAll != 0) return t;
  }
  return 0;
}

/// Backward word-propagation: afterwards back[x] has bit j iff x reaches
/// targets[j] under G_1 ∘ … ∘ G_t (self-loops implicit). Each round
/// writes every node once from the other buffer, so the two swap
/// instead of being copied; a node that already reaches every target
/// reads none of its out-neighbours.
void backwardReach(std::size_t t, const std::vector<std::uint32_t>& targets,
                   RoundReplayer& rounds, std::vector<std::uint64_t>& back,
                   std::vector<std::uint64_t>& prev) {
  std::fill(back.begin(), back.end(), std::uint64_t{0});
  for (std::size_t j = 0; j < targets.size(); ++j) {
    back[targets[j]] |= std::uint64_t{1} << j;
  }
  const std::uint64_t all = allBits(targets.size());
  for (std::size_t s = t; s >= 1; --s) {
    const SparseRound& g = rounds.round(s);
    back.swap(prev);
    for (std::size_t x = 0; x < back.size(); ++x) {
      std::uint64_t reach = prev[x];
      if (reach != all) {
        for (std::uint32_t k = g.offsets[x]; k < g.offsets[x + 1]; ++k) {
          reach |= prev[g.arcs[k]];
        }
      }
      back[x] = reach;
    }
  }
}

/// The `count` nodes that the fewest sampled sources had reached in
/// `words` (one bit per source), ties broken by lowest id, in ascending
/// id order. A bucket count by popcount picks them in two passes.
std::vector<std::uint32_t> laggards(const std::vector<std::uint64_t>& words,
                                    std::size_t count) {
  DYNBCAST_ASSERT(count <= words.size());
  std::size_t perCount[65] = {};
  for (const std::uint64_t w : words) ++perCount[std::popcount(w)];
  // Every node reached by fewer than `cut` sources is taken, then the
  // lowest ids among those reached by exactly `cut`.
  std::size_t cut = 0;
  std::size_t below = 0;
  while (below + perCount[cut] < count) below += perCount[cut++];
  std::size_t atCut = count - below;
  std::vector<std::uint32_t> out;
  out.reserve(count);
  for (std::size_t y = 0; y < words.size(); ++y) {
    const auto reached = static_cast<std::size_t>(std::popcount(words[y]));
    if (reached > cut) continue;
    if (reached == cut) {
      if (atCut == 0) continue;
      --atCut;
    }
    out.push_back(static_cast<std::uint32_t>(y));
  }
  return out;
}

/// Keeps, in order, the candidates from index `from` on that reach every
/// node of `targets` under G_1 ∘ … ∘ G_limit; the rest cannot have
/// broadcast by `limit`.
void keepReaching(std::vector<std::uint32_t>& candidates, std::size_t from,
                  const std::vector<std::uint32_t>& targets, std::size_t limit,
                  RoundReplayer& rounds, std::vector<std::uint64_t>& back,
                  std::vector<std::uint64_t>& prev) {
  std::size_t kept = 0;
  if (from < candidates.size()) {
    backwardReach(limit, targets, rounds, back, prev);
    const std::uint64_t all = allBits(targets.size());
    for (std::size_t i = from; i < candidates.size(); ++i) {
      if (back[candidates[i]] == all) candidates[kept++] = candidates[i];
    }
  }
  candidates.resize(kept);
}

}  // namespace

FrontierTStarResult runFrontierTStar(std::size_t n, SparseRoundSource& source,
                                     const FrontierTStarOptions& options) {
  DYNBCAST_ASSERT_MSG(n >= 1, "need at least one process");
  FrontierTStarResult result;
  if (n == 1) {
    result.completed = true;
    return result;
  }
  source.reset();
  RoundReplayer rounds(n, source, options.cacheBudgetArcs);
  const std::size_t samples =
      std::min(std::clamp<std::size_t>(options.samples, 1, 64), n);
  Rng rng(options.sampleSeed ^ 0x5bf03635f0a3d7c5ull);
  const std::vector<std::uint32_t> sources = pickDistinct(n, samples, rng);
  std::vector<std::uint64_t> cover(n), prev(n);
  // best is the earliest completion seen so far (0: none); only a node
  // that broadcasts by limit = best − 1 could still lower it.
  std::size_t best = forwardCompletionRound(n, sources, options.maxRounds,
                                            rounds, cover, prev);
  std::size_t limit = best != 0 ? best - 1 : options.maxRounds;
  // The backward targets: the nodes the sampled sources had reached
  // least by round limit (prev holds that round when a source completed,
  // cover when none did). Any broadcaster by limit reaches them all, so
  // the filter over-approximates the broadcasters.
  const std::vector<std::uint32_t> targets =
      laggards(best != 0 ? prev : cover, samples);
  std::vector<std::uint64_t> back(n);
  std::vector<std::uint32_t> candidates(n);
  std::iota(candidates.begin(), candidates.end(), 0u);
  keepReaching(candidates, 0, targets, limit, rounds, back, prev);
  std::vector<std::uint32_t> batch;
  while (!candidates.empty()) {
    const std::size_t batchSize = std::min<std::size_t>(64, candidates.size());
    batch.assign(candidates.begin(), candidates.begin() + batchSize);
    ++result.batches;
    const std::size_t done =
        forwardCompletionRound(n, batch, limit, rounds, cover, prev);
    if (done != 0) {
      // Cut every later batch below the new best round.
      best = done;
      limit = done - 1;
      keepReaching(candidates, batchSize, targets, limit, rounds, back, prev);
      continue;
    }
    // Each batch member missed someone by limit; collect one miss per
    // member, and drop the candidates that miss one of them too.
    std::vector<std::uint32_t> missed;
    std::uint64_t unassigned = allBits(batchSize);
    for (std::size_t y = 0; y < n && unassigned != 0; ++y) {
      const std::uint64_t hit = ~cover[y] & unassigned;
      if (hit == 0) continue;
      missed.push_back(static_cast<std::uint32_t>(y));
      unassigned &= ~hit;
    }
    DYNBCAST_ASSERT_MSG(unassigned == 0,
                        "failed batch must miss at least one node each");
    keepReaching(candidates, batchSize, missed, limit, rounds, back, prev);
  }
  result.completed = best != 0;
  result.rounds = result.completed ? best : options.maxRounds;
  return result;
}

}  // namespace dynbcast
