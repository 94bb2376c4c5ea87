// SimTrace: a recorded execution — the adversary's tree sequence plus
// per-round metrics. Traces make adversarial executions reproducible
// artifacts: they can be replayed against a fresh simulator (tests use
// this to validate determinism) and exported as CSV for plotting.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/broadcast_sim.h"
#include "src/sim/metrics.h"
#include "src/tree/rooted_tree.h"

namespace dynbcast {

class SimTrace {
 public:
  explicit SimTrace(std::size_t n, std::uint64_t seed = 0)
      : n_(n), seed_(seed) {}

  [[nodiscard]] std::size_t processCount() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  void record(const RootedTree& tree, const RoundMetrics& metrics);

  [[nodiscard]] std::size_t roundCount() const noexcept {
    return trees_.size();
  }
  [[nodiscard]] const std::vector<RootedTree>& trees() const noexcept {
    return trees_;
  }
  [[nodiscard]] const std::vector<RoundMetrics>& metrics() const noexcept {
    return metrics_;
  }

  /// Replays the tree sequence on a fresh simulator and returns the round
  /// at which broadcast completed (0 when it never did within the trace).
  /// Also verifies that the recorded metrics match the replay; throws
  /// AssertionError on divergence.
  std::size_t replayAndVerify() const;

  /// CSV with one row per round: round, edges, heard min/avg/max,
  /// coverage, complete rows/cols.
  [[nodiscard]] std::string toCsv() const;

 private:
  std::size_t n_;
  std::uint64_t seed_;
  std::vector<RootedTree> trees_;
  std::vector<RoundMetrics> metrics_;
};

/// Runs an adversary callback to broadcast completion while recording a
/// trace. Returns the trace; `completedOut` (optional) reports success.
[[nodiscard]] SimTrace recordBroadcastTrace(
    std::size_t n,
    const std::function<RootedTree(const BroadcastSim&)>& nextTree,
    std::size_t maxRounds, std::uint64_t seed = 0,
    bool* completedOut = nullptr);

}  // namespace dynbcast
