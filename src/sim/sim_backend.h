// SimBackend: the concept every simulation backend satisfies.
//
// Two engines implement the paper's model round by round, each with a
// different representation:
//
//   * BroadcastSim — dense heard-of bit matrix, the fast reference
//   * ProcessSim   — literal message objects, the executable spec
//
// (The sparse backend, runFrontierTStar in frontier_sim.h, computes t*
// alone and is not a round-by-round engine.)
//
// They grew the same public surface by convention; this concept makes
// the convention a compile-time contract (conformance is static_asserted
// in tests/sim_backend_test.cpp), so a drifting signature is a build
// error instead of a latent engine-selection bug. runUntil and the
// differential suites program against exactly this surface.
//
// Contract (beyond the signatures): applyTree applies one synchronous
// round along a rooted tree; applyGraph one round along a reflexive
// directed graph; heardCount(y) == |Heard(y)|; broadcastDone() iff some
// process has been heard by everyone (⋂_y Heard(y) ≠ ∅); gossipDone()
// iff everyone heard everyone; reset() returns to the round-0 identity
// state. Both backends are EXACT — same t*, same counts, bit for bit.
//
// runUntil is the one round loop every driver shares. It checks the
// objective at round 0 (so n = 1 completes with rounds 0 and an empty
// history), then calls step(sim) — which must advance exactly one round —
// until the objective holds or sim.round() reaches maxRounds. History
// entry r is sim.metrics() after round r+1, recorded only when asked. A
// stall reports rounds == maxRounds, completed == false.
#pragma once

#include <concepts>
#include <cstddef>
#include <vector>

#include "src/graph/bitmatrix.h"
#include "src/sim/metrics.h"
#include "src/tree/rooted_tree.h"

namespace dynbcast {

template <typename S>
concept SimBackend = requires(S sim, const S& csim, const RootedTree& tree,
                              const BitMatrix& graph, std::size_t y) {
  { csim.processCount() } -> std::convertible_to<std::size_t>;
  { csim.round() } -> std::convertible_to<std::size_t>;
  sim.applyTree(tree);
  sim.applyGraph(graph);
  sim.reset();
  { csim.heardCount(y) } -> std::convertible_to<std::size_t>;
  { csim.broadcastDone() } -> std::convertible_to<bool>;
  { csim.gossipDone() } -> std::convertible_to<bool>;
};

/// What a run must complete: one row of the product graph (broadcast) or
/// all of them (gossip).
enum class Objective { kBroadcast, kGossip };

/// Outcome of a driven simulation run.
struct BroadcastRun {
  /// Rounds executed until completion (== t* when completed).
  std::size_t rounds = 0;
  bool completed = false;
  /// Per-round metrics (entry r describes the state after round r+1);
  /// empty unless requested.
  std::vector<RoundMetrics> history;
};

/// Drives `sim` from its current (round-0) state with `step`, one round
/// per call, until `objective` holds or maxRounds is reached (contract
/// in the file comment). Recording history needs Sim::metrics().
template <SimBackend Sim, class Step>
[[nodiscard]] BroadcastRun runUntil(Sim& sim, Objective objective,
                                    std::size_t maxRounds,
                                    bool recordHistory, Step&& step) {
  const auto done = [&sim, objective] {
    return objective == Objective::kGossip ? sim.gossipDone()
                                           : sim.broadcastDone();
  };
  BroadcastRun run;
  run.completed = done();
  while (!run.completed && sim.round() < maxRounds) {
    step(sim);
    if (recordHistory) run.history.push_back(sim.metrics());
    run.completed = done();
  }
  run.rounds = sim.round();
  return run;
}

}  // namespace dynbcast
