// DynamicsModel: a per-round communication-graph generator — the "which
// network?" axis of an experiment, made first-class.
//
// The paper fixes the dynamics to adversarially chosen rooted trees and
// proves broadcast is linear there. Related work studies the same
// broadcast question on other dynamic-graph models: nonsplit graphs
// (Charron-Bost & Schiper; Függer–Nowak–Winkler), T-interval-connected
// and edge-Markovian dynamics (Kuhn–Lynch–Oshman and the random-evolution
// line). A DynamicsModel packages one such model as an object that emits
// the round-t communication graph, with two declared contracts:
//
//   * graphClass(): a structural property every emitted graph satisfies
//     (rooted-tree-with-self-loops, nonsplit, or none beyond
//     reflexivity). runDynamicsBroadcast re-checks it every round, so a
//     model that lies about its class fails loudly.
//   * deterministic replay: all randomness flows from the (n, seed) the
//     model was constructed with, and reset() rewinds it to that seed —
//     so position-derived seeds give bit-identical sweeps at any job
//     count, and a replayed run reproduces its graphs exactly.
//
// Models are constructed by name through the DynamicsRegistry
// (src/dynamics/registry.h), the dynamics-axis twin of the
// AdversaryRegistry.
#pragma once

#include <cstdint>
#include <string>

#include "src/graph/bitmatrix.h"
#include "src/sim/broadcast_sim.h"
#include "src/sim/frontier_sim.h"
#include "src/sim/sim_backend.h"

namespace dynbcast {

/// Size at or below which sparse-capable models MIRROR the dense
/// generator: nextSparseRound() emits bit-identical graphs to
/// nextGraph() by replaying the same RNG call sequence, so the dense and
/// sparse backends produce identical rows at overlapping n (the golden
/// CSVs rely on this). Above it, models switch to native O(edges)
/// generation (skip-sampling) whose arc stream is distributionally
/// equivalent but not RNG-identical — the regime where the dense matrix
/// could not be materialized anyway.
inline constexpr std::size_t kSparseDenseMirrorMaxN = 4096;

/// The structural guarantee a model declares for every graph it emits
/// (always in addition to reflexivity — self-loops model "no forgetting").
enum class DynamicsClass {
  kRootedTree,  ///< a member of T_n: rooted tree + self-loops (paper §2)
  kNonsplit,    ///< every pair of nodes has a common in-neighbor ([2]/[9])
  kNone         ///< reflexive only (e.g. edge-Markovian snapshots)
};

[[nodiscard]] std::string dynamicsClassName(DynamicsClass c);

class DynamicsModel {
 public:
  virtual ~DynamicsModel() = default;

  DynamicsModel() = default;
  DynamicsModel(const DynamicsModel&) = delete;
  DynamicsModel& operator=(const DynamicsModel&) = delete;

  /// The communication graph for round state.round() + 1. Must be
  /// reflexive, of dimension state.processCount(), and satisfy
  /// graphClass(); the driver asserts all three.
  [[nodiscard]] virtual BitMatrix nextGraph(const BroadcastSim& state) = 0;

  /// Canonical spec string this model was built from (registry grammar),
  /// e.g. "edge-markovian:p=0.2,q=0.1" — the sweep-row display name.
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual DynamicsClass graphClass() const = 0;

  /// The model's own stall-detection round cap for its construction size
  /// (the ⌈log₂ n⌉ regime needs far less headroom than a linear one).
  [[nodiscard]] virtual std::size_t defaultRoundCap() const = 0;

  /// Rewinds to the constructed seed: the next nextGraph() sequence
  /// replays the previous one exactly.
  virtual void reset() {}

  /// True when the model can emit rounds as arc lists without ever
  /// materializing the dense matrix (nextSparseRound below). Oblivious
  /// stochastic models can; adversary-driven dynamics cannot (their
  /// moves inspect the dense simulator state).
  [[nodiscard]] virtual bool supportsSparseRounds() const { return false; }

  /// The communication graph for the next round as a SparseRound
  /// (self-loops implicit). Contract mirrors nextGraph(): all randomness
  /// flows from the constructed seed, reset() rewinds the sequence, and
  /// for n ≤ kSparseDenseMirrorMaxN the emitted graph is bit-identical
  /// to what nextGraph() would have produced. A model instance must be
  /// driven through ONE of the two interfaces per run (reset() starts a
  /// fresh run). Throws std::logic_error unless supportsSparseRounds().
  virtual void nextSparseRound(SparseRound& out);
};

/// SparseRoundSource adapter over a DynamicsModel — feeds the t*-only
/// frontier mode from any sparse-capable model. Its reset() forwards to
/// the model, whose replay contract is gated by the named suite.
// dynbcast-lint: replay-test(ModelsReplayDeterministicallyAcrossReset)
class DynamicsRoundSource final : public SparseRoundSource {
 public:
  explicit DynamicsRoundSource(DynamicsModel& model) : model_(model) {}

  void reset() override { model_.reset(); }

  const SparseRound& next() override {
    model_.nextSparseRound(round_);
    return round_;
  }

 private:
  DynamicsModel& model_;
  SparseRound round_;
};

/// Drives a BroadcastSim through runUntil with graphs from `model` (reset
/// first) until broadcast completes or maxRounds is hit; each step
/// asserts the model's declared graph class before applying the graph.
/// The stochastic twin of runAdversary().
[[nodiscard]] BroadcastRun runDynamicsBroadcast(std::size_t n,
                                                DynamicsModel& model,
                                                std::size_t maxRounds,
                                                bool recordHistory = false);

/// The sparse twin of runDynamicsBroadcast: computes t* for `model`'s
/// nextSparseRound() stream (the model must supportSparseRounds()) with
/// the O(n)-memory runFrontierTStar, so the returned run has no history;
/// runs that want per-round metrics use the dense driver. rounds and
/// completed are bit-identical to runDynamicsBroadcast whenever the
/// model's sparse generation mirrors its dense one (always at
/// n ≤ kSparseDenseMirrorMaxN). `sampleSeed` tunes the t*-mode sampling
/// and never affects results. Unlike the dense driver, the declared graph
/// class is not re-asserted per round (that check is O(n²)); the
/// differential suite enforces it at overlapping sizes instead.
[[nodiscard]] BroadcastRun runFrontierDynamicsBroadcast(
    std::size_t n, DynamicsModel& model, std::size_t maxRounds,
    std::uint64_t sampleSeed = 0);

}  // namespace dynbcast
