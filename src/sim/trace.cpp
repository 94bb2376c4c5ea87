#include "src/sim/trace.h"

#include <sstream>

#include "src/sim/sim_backend.h"
#include "src/support/assert.h"
#include "src/support/format.h"

namespace dynbcast {

void SimTrace::record(const RootedTree& tree, const RoundMetrics& metrics) {
  DYNBCAST_ASSERT(tree.size() == n_);
  trees_.push_back(tree);
  metrics_.push_back(metrics);
}

std::size_t SimTrace::replayAndVerify() const {
  BroadcastSim sim(n_);
  std::size_t broadcastRound = 0;
  for (std::size_t r = 0; r < trees_.size(); ++r) {
    sim.applyTree(trees_[r]);
    DYNBCAST_ASSERT_MSG(sim.metrics() == metrics_[r],
                        "trace replay diverged at round " +
                            std::to_string(r + 1));
    if (broadcastRound == 0 && sim.broadcastDone()) {
      broadcastRound = sim.round();
    }
  }
  return broadcastRound;
}

std::string SimTrace::toCsv() const {
  std::ostringstream os;
  os << "round,total_edges,min_heard,avg_heard,max_heard,max_coverage,"
     << "complete_rows,complete_cols\n";
  for (const RoundMetrics& m : metrics_) {
    os << m.round << ',' << m.totalEdges << ',' << m.minHeard << ','
       << fmtDouble(m.avgHeard, 4) << ',' << m.maxHeard << ','
       << m.maxCoverage << ',' << m.completeRows << ',' << m.completeCols
       << '\n';
  }
  return os.str();
}

SimTrace recordBroadcastTrace(
    std::size_t n,
    const std::function<RootedTree(const BroadcastSim&)>& nextTree,
    std::size_t maxRounds, std::uint64_t seed, bool* completedOut) {
  BroadcastSim sim(n);
  SimTrace trace(n, seed);
  const BroadcastRun run = runUntil(
      sim, Objective::kBroadcast, maxRounds, /*recordHistory=*/false,
      [&nextTree, &trace](BroadcastSim& state) {
        const RootedTree tree = nextTree(state);
        state.applyTree(tree);
        trace.record(tree, state.metrics());
      });
  if (completedOut != nullptr) *completedOut = run.completed;
  return trace;
}

}  // namespace dynbcast
