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
namespace {

/// One round regrouped by source: the out-neighbours of x are
/// targets[offsets[x] .. offsets[x + 1]), self-loops dropped. Duplicate
/// arcs are kept; every pass below is idempotent in them.
struct CompactRound {
  std::vector<std::uint32_t> offsets;  // n + 1 entries
  std::vector<std::uint32_t> targets;

  /// Regroups `round`'s arcs by source with a counting sort.
  void assign(std::size_t n, const SparseRound& round) {
    DYNBCAST_ASSERT_MSG(
        round.arcs.size() <= std::numeric_limits<std::uint32_t>::max(),
        "a round's arcs must fit u32 offsets");
    offsets.assign(n + 1, 0);
    for (const auto& [x, y] : round.arcs) {
      DYNBCAST_ASSERT_MSG(x < n && y < n, "arc endpoint out of range");
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
    targets.resize(start);
    for (const auto& [x, y] : round.arcs) {
      if (x != y) targets[offsets[x + 1]++] = y;
    }
  }

  /// Cache units (4 bytes each) this round occupies.
  [[nodiscard]] std::size_t units() const noexcept {
    return offsets.size() + targets.size();
  }
};

/// Serves round t (1-based) from a cache of compact rounds while they
/// fit the budget, else by replaying the source from reset() — the
/// latter keeps the mode exact with O(n) memory at the price of O(t)
/// regeneration per backward step.
class RoundReplayer {
 public:
  RoundReplayer(std::size_t n, SparseRoundSource& source,
                std::size_t budgetArcs)
      : n_(n), source_(source), budgetArcs_(budgetArcs) {}

  const CompactRound& round(std::size_t t) {
    DYNBCAST_ASSERT_MSG(t >= 1, "rounds are 1-based");
    if (t <= cache_.size()) return cache_[t - 1];
    if (generated_ >= t) {
      source_.reset();
      generated_ = 0;
    }
    while (generated_ < t) {
      const SparseRound& pulled = source_.next();
      ++generated_;
      ++totalGenerated_;
      if (caching_ && generated_ == cache_.size() + 1) {
        scratch_.assign(n_, pulled);
        if (cachedUnits_ + scratch_.units() <= budgetArcs_) {
          cachedUnits_ += scratch_.units();
          cache_.push_back(std::move(scratch_));
          scratch_ = CompactRound{};
          continue;
        }
        caching_ = false;
      } else if (generated_ == t) {
        scratch_.assign(n_, pulled);
      }
    }
    return t <= cache_.size() ? cache_[t - 1] : scratch_;
  }

  [[nodiscard]] std::size_t totalGenerated() const noexcept {
    return totalGenerated_;
  }

 private:
  std::size_t n_;
  SparseRoundSource& source_;
  std::size_t budgetArcs_;
  std::vector<CompactRound> cache_;
  std::size_t cachedUnits_ = 0;
  bool caching_ = true;
  CompactRound scratch_;            // round t when it is not cached
  std::size_t generated_ = 0;       // rounds pulled since the last reset
  std::size_t totalGenerated_ = 0;  // lifetime next() calls (diagnostics)
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
    const CompactRound& g = rounds.round(t);
    std::copy(cover.begin(), cover.end(), prev.begin());
    for (std::size_t x = 0; x < n; ++x) {
      const std::uint64_t from = prev[x];
      if (from == 0) continue;
      for (std::uint32_t k = g.offsets[x]; k < g.offsets[x + 1]; ++k) {
        cover[g.targets[k]] |= from;
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
    const CompactRound& g = rounds.round(s);
    back.swap(prev);
    for (std::size_t x = 0; x < back.size(); ++x) {
      std::uint64_t reach = prev[x];
      if (reach != all) {
        for (std::uint32_t k = g.offsets[x]; k < g.offsets[x + 1]; ++k) {
          reach |= prev[g.targets[k]];
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

/// Probes the monotone predicate "broadcast done by round t" exactly and
/// returns the round at which a certified broadcaster completed (≤ t),
/// or 0 when none does. The backward filter from `targets`
/// over-approximates the broadcaster set (anything heard by all n nodes
/// is heard by the targets), and forward certification of candidate
/// batches settles it. When a batch fails, the nodes it provably missed
/// become the next filter's targets, so every iteration removes at least
/// the batch — termination is structural, and the refined targets are
/// the batch's actual laggards.
std::size_t testRound(std::size_t n, std::size_t t,
                      const std::vector<std::uint32_t>& targets,
                      RoundReplayer& rounds, FrontierTStarResult& result,
                      std::vector<std::uint64_t>& cover,
                      std::vector<std::uint64_t>& prev,
                      std::vector<std::uint64_t>& back) {
  ++result.probes;
  backwardReach(t, targets, rounds, back, prev);
  std::uint64_t mask = allBits(targets.size());
  std::vector<std::uint32_t> candidates;
  for (std::size_t x = 0; x < n; ++x) {
    if (back[x] == mask) candidates.push_back(static_cast<std::uint32_t>(x));
  }
  std::vector<std::uint32_t> batch;
  while (!candidates.empty()) {
    const std::size_t batchSize = std::min<std::size_t>(64, candidates.size());
    batch.assign(candidates.begin(), candidates.begin() + batchSize);
    ++result.batches;
    const std::size_t done =
        forwardCompletionRound(n, batch, t, rounds, cover, prev);
    if (done != 0) return done;
    // Each batch member missed someone; collect one miss per member.
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
    backwardReach(t, missed, rounds, back, prev);
    mask = allBits(missed.size());
    std::vector<std::uint32_t> next;
    for (std::size_t i = batchSize; i < candidates.size(); ++i) {
      if (back[candidates[i]] == mask) next.push_back(candidates[i]);
    }
    candidates.swap(next);
  }
  return 0;
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
  std::size_t samples = std::clamp<std::size_t>(options.samples, 1, 64);
  if (n <= 64) samples = n;
  Rng rng(options.sampleSeed ^ 0x5bf03635f0a3d7c5ull);
  const std::vector<std::uint32_t> sources =
      pickDistinct(n, samples, rng);
  std::vector<std::uint64_t> cover(n), prev(n);
  const std::size_t upper = forwardCompletionRound(
      n, sources, options.maxRounds, rounds, cover, prev);
  if (samples == n) {
    // Every node was a forward source: the scan itself is exact.
    result.rounds = upper != 0 ? upper : options.maxRounds;
    result.completed = upper != 0;
    result.roundsGenerated = rounds.totalGenerated();
    return result;
  }
  // The backward targets of every probe: the nodes the sampled sources
  // had reached least by round upper − 1, where the first probe looks.
  const std::vector<std::uint32_t> targets = laggards(prev, samples);
  std::vector<std::uint64_t> back(n);
  // With no sampled source finished, an unsampled one still might have.
  std::size_t hi = upper != 0 ? upper
                              : testRound(n, options.maxRounds, targets,
                                          rounds, result, cover, prev, back);
  if (hi == 0) {
    result.rounds = options.maxRounds;
    result.completed = false;
    result.roundsGenerated = rounds.totalGenerated();
    return result;
  }
  // Search the monotone completion predicate; hi is known-true. The
  // sampled bound is usually within a round of t*, so its first probe
  // looks one round below it, where a failure settles t* = hi at once;
  // then it bisects. A success moves hi to the round its batch
  // completed, which may lie below the probe.
  std::size_t lo = 1;
  bool belowBound = upper != 0;
  while (lo < hi) {
    const std::size_t mid = belowBound ? hi - 1 : lo + (hi - lo) / 2;
    belowBound = false;
    const std::size_t done =
        testRound(n, mid, targets, rounds, result, cover, prev, back);
    if (done != 0) {
      hi = done;
    } else {
      lo = mid + 1;
    }
  }
  result.rounds = hi;
  result.completed = true;
  result.roundsGenerated = rounds.totalGenerated();
  return result;
}

}  // namespace dynbcast
