// The two-phase lower-bound line as a SparseRoundSource, so that the
// sparse t* engine can replay it: perf_harness times runFrontierTStar on
// it, and the frontier tests check that it lands on lowerBound(n).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/adversary/oblivious.h"
#include "src/sim/frontier_sim.h"

namespace dynbcast {

/// Feeds TwoPhaseAdversary::next() as SparseRounds: each tree's arcs
/// parent(v) → v, regrouped by parent.
class TwoPhaseRoundSource final : public SparseRoundSource {
 public:
  explicit TwoPhaseRoundSource(std::size_t n) : line_(n) {}
  void reset() override { line_.reset(); }
  const SparseRound& next() override {
    const RootedTree tree = line_.next();
    pairs_.clear();
    for (std::size_t v = 0; v < tree.size(); ++v) {
      if (v == tree.root()) continue;
      pairs_.emplace_back(static_cast<std::uint32_t>(tree.parent(v)),
                          static_cast<std::uint32_t>(v));
    }
    assignArcs(tree.size(), pairs_, round_);
    return round_;
  }

 private:
  TwoPhaseAdversary line_;
  std::vector<Arc> pairs_;
  SparseRound round_;
};

}  // namespace dynbcast
