// The two-phase lower-bound line as a SparseRoundSource, so that the
// sparse t* engine can replay it: perf_harness times runFrontierTStar on
// it, and the frontier tests check that it lands on lowerBound(n).
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/adversary/oblivious.h"
#include "src/sim/frontier_sim.h"

namespace dynbcast {

/// Feeds TwoPhaseAdversary::next() as SparseRounds: each tree's arcs
/// parent(v) → v.
class TwoPhaseRoundSource final : public SparseRoundSource {
 public:
  explicit TwoPhaseRoundSource(std::size_t n) : line_(n) { round_.n = n; }
  void reset() override { line_.reset(); }
  const SparseRound& next() override {
    const RootedTree tree = line_.next();
    round_.arcs.clear();
    for (std::size_t v = 0; v < tree.size(); ++v) {
      if (v == tree.root()) continue;
      round_.arcs.emplace_back(static_cast<std::uint32_t>(tree.parent(v)),
                               static_cast<std::uint32_t>(v));
    }
    return round_;
  }

 private:
  TwoPhaseAdversary line_;
  SparseRound round_;
};

}  // namespace dynbcast
