// LocalSearchPathAdversary: per-round hill climbing over path orderings.
//
// Starts each round from the strongest freeze ordering and improves it by
// randomized pairwise swaps and segment reversals, accepting a move when
// it strictly lowers the one-round DelayScore. More expensive per round
// than GreedyDelayAdversary but finds orderings the fixed candidate pool
// misses; the benches compare both.
//
// reset() here must replay bit-identically; gated by the named suite.
// dynbcast-lint: replay-test(DeterministicPerSeed)
#pragma once

#include <cstdint>

#include "src/adversary/adaptive.h"
#include "src/adversary/adversary.h"
#include "src/support/rng.h"

namespace dynbcast {

struct LocalSearchConfig {
  /// Swap attempts per round (each evaluated with evaluateCandidate).
  std::size_t iterations = 64;
  /// Freeze depth of the starting ordering.
  std::size_t freezeDepth = 2;
  /// Probability a move is a segment reversal instead of a swap, in
  /// [0, 1] (the registry rejects anything else, NaN included).
  double reversalProbability = 0.25;
};

class LocalSearchPathAdversary final : public Adversary {
 public:
  LocalSearchPathAdversary(std::size_t n, std::uint64_t seed,
                           LocalSearchConfig config = {});

  [[nodiscard]] RootedTree nextTree(const BroadcastSim& state) override;
  [[nodiscard]] std::string name() const override { return "local-search"; }
  void reset() override;

 private:
  std::size_t n_;
  std::uint64_t seed_;
  Rng rng_;
  LocalSearchConfig config_;
  std::vector<std::size_t> order_;  // carried across rounds for stability
  EvalScratch scratch_;             // reused across all evaluations
};

}  // namespace dynbcast
