#include "src/adversary/local_search.h"

#include <algorithm>

#include "src/support/assert.h"
#include "src/tree/families.h"

namespace dynbcast {

LocalSearchPathAdversary::LocalSearchPathAdversary(std::size_t n,
                                                   std::uint64_t seed,
                                                   LocalSearchConfig config)
    : n_(n),
      seed_(seed),
      rng_(seed),
      config_(config),
      order_(identityOrder(n)),
      scratch_(EvalScratch::forProcessCount(n)) {
  DYNBCAST_ASSERT(config_.freezeDepth >= 1);
}

void LocalSearchPathAdversary::reset() {
  rng_ = Rng(seed_);
  order_ = identityOrder(n_);
}

RootedTree LocalSearchPathAdversary::nextTree(const BroadcastSim& state) {
  DYNBCAST_ASSERT(state.processCount() == n_);
  const std::vector<std::size_t> coverage = coverageCounts(state);
  const std::vector<DynBitset>& heard = state.heardMatrix();

  // Start from the stable freeze of the carried order, then hill-climb.
  // Every trial is scored from its order in the one reused `trial`
  // buffer; only the final path is built as a tree.
  std::vector<std::size_t> order = freezeOrdering(
      heard, coverageLeaders(coverage, config_.freezeDepth), order_);
  DelayScore best = evaluatePath(heard, coverage, order, scratch_);

  std::vector<std::size_t> trial;
  for (std::size_t it = 0; it < config_.iterations && n_ >= 2; ++it) {
    trial = order;
    const std::size_t i = rng_.uniform(n_);
    std::size_t j = rng_.uniform(n_ - 1);
    if (j >= i) ++j;
    if (rng_.chance(config_.reversalProbability)) {
      const auto lo = static_cast<std::ptrdiff_t>(std::min(i, j));
      const auto hi = static_cast<std::ptrdiff_t>(std::max(i, j));
      std::reverse(trial.begin() + lo, trial.begin() + hi + 1);
    } else {
      std::swap(trial[i], trial[j]);
    }
    const DelayScore s = evaluatePath(heard, coverage, trial, scratch_);
    if (s < best) {
      best = s;
      std::swap(order, trial);
    }
  }
  order_ = order;
  return makePath(order_);
}

}  // namespace dynbcast
