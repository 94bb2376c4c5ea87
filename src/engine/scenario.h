// ScenarioSpec: the declarative description of one experiment campaign.
//
// A scenario names WHAT to measure (objective: broadcast or gossip),
// UNDER WHICH dynamics — a DynamicsRegistry spec string ("rooted-tree",
// "restricted:class=k-leaf,k=3", "edge-markovian:p=0.2,q=0.1") — OVER
// which sizes × seed replicates, and AGAINST which adversaries, the
// latter as AdversaryRegistry spec strings ("freeze-path:depth=3",
// "beam:width=64"). Both axes are data, so composing a new experiment
// never means writing a new main(). runScenario() executes the spec on an
// ExperimentEngine through the task plan's executor
// (src/engine/task_plan.h): every row is a position in the (size,
// replicate, member) grid, seeded from that position, so the rows come
// back in the same deterministic order — byte-identical at any job count
// and in any service worker that runs the same positions. Every
// position is one task: adversary-driven trees (broadcast or gossip) and
// graph-model dynamics (nonsplit-random, edge-markovian, t-interval, …)
// alike.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/experiment_engine.h"
#include "src/sim/sim_backend.h"

namespace dynbcast {

[[nodiscard]] Objective parseObjective(const std::string& text);
[[nodiscard]] std::string objectiveName(Objective objective);

/// Which simulation engine executes the runs. Dense is the bitset
/// BroadcastSim (O(n²) bits of state); sparse is runFrontierTStar
/// (arc-list rounds, O(n + edges) state, t* only), valid only for
/// sparse-capable graph-model dynamics and without per-round history.
/// Auto resolves per instance: sparse above kAutoSparseThreshold when the
/// model supports it and no per-round history is wanted, dense otherwise.
/// Rows are backend-invariant at n ≤ kAutoSparseThreshold (sparse
/// generation mirrors dense there), so golden CSVs hold across backends.
enum class BackendChoice { kDense, kSparse, kAuto };

/// Auto switches to sparse strictly above this size. Equal to the
/// dynamics layer's kSparseDenseMirrorMaxN (static_assert'd in
/// scenario.cpp): below it sparse/dense rows are bit-identical, so the
/// auto choice is observable only where the dense matrix starts to hurt.
inline constexpr std::size_t kAutoSparseThreshold = 4096;

[[nodiscard]] BackendChoice parseBackendChoice(const std::string& text);
[[nodiscard]] std::string backendChoiceName(BackendChoice backend);

/// Largest process count a scenario may list: above the CI's million-
/// process sparse run, far below sizes whose state could not be
/// allocated. Bounds what one request can make a server try.
inline constexpr std::size_t kMaxScenarioSize = std::size_t{1} << 20;

/// Largest number of rows (sizes × seeds × members) one scenario may
/// plan; every row is a task and a result record.
inline constexpr std::size_t kMaxScenarioRows = std::size_t{1} << 20;

struct ScenarioSpec {
  Objective objective = Objective::kBroadcast;
  /// DynamicsRegistry spec string naming the dynamic-graph model (the
  /// adversary's move universe, or a stochastic graph process).
  std::string dynamics = "rooted-tree";
  std::vector<std::size_t> sizes;
  std::uint64_t masterSeed = 1;
  /// Independent seed replicates per size (position-derived seeds).
  std::size_t seedsPerSize = 1;
  /// Round cap per run; 0 = the dynamics/objective default
  /// (defaultRoundCap(n) for broadcast trees, defaultGossipRoundCap(n)
  /// for gossip, the model's own defaultRoundCap for graph models).
  std::size_t roundCap = 0;
  /// Adversary spec strings; empty = the dynamics' declared default list
  /// (the standard portfolio for rooted trees). Graph-model dynamics
  /// take no adversaries — the model emits the graphs itself.
  std::vector<std::string> adversaries;
  /// Capture per-round metrics in every row (costly at large n; dense
  /// engine only).
  bool recordHistory = false;
  /// Simulation engine selection (see BackendChoice). kSparse requires a
  /// sparse-capable graph-model dynamics and no recordHistory; kAuto is
  /// always valid.
  BackendChoice backend = BackendChoice::kAuto;
};

/// The default member list for a dynamics spec: the standard portfolio
/// for rooted trees, small-k class members for restricted, the model
/// itself for graph models. Throws std::invalid_argument on unknown
/// dynamics.
[[nodiscard]] std::vector<std::string> defaultAdversarySpecs(
    const std::string& dynamics);

/// Throws std::invalid_argument unless 1 <= n <= kMaxScenarioSize: the
/// per-size rule of validateScenario, shared with single-instance
/// commands.
void validateScenarioSize(std::size_t n);

/// Checks the spec is runnable: at least one size, every size in
/// [1, kMaxScenarioSize], at most kMaxScenarioRows rows, known
/// dynamics/adversary names and keys (with suggestions), parameter
/// values valid at every listed size (the registries' validate(spec, n)),
/// adversaries compatible with the dynamics (class restrictions for
/// restricted trees; none allowed on graph models), and a supported
/// objective/dynamics combination. Throws std::invalid_argument;
/// runScenario() calls this first, so no row runs on a bad spec.
void validateScenario(const ScenarioSpec& spec);

/// Scenario results reuse the engine's unified row/instance types: rows
/// ordered by (size position, replicate, member), plus per-(n, seed)
/// aggregates whose bestRounds is Definition 2.3's max over the listed
/// members.
using ScenarioRow = SweepRow;
using ScenarioResult = SweepResult;

/// Validates the scenario, builds its ScenarioPlan once and runs every
/// row position through the plan's executor on the engine. A default rooted-tree broadcast
/// scenario reproduces runPortfolio(n, instanceSeed) per instance
/// bit-for-bit.
[[nodiscard]] ScenarioResult runScenario(const ScenarioSpec& spec,
                                         ExperimentEngine& engine);

}  // namespace dynbcast
