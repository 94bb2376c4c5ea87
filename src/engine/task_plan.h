// The scenario task plan and its executor: every scenario, flattened into
// addressable, independently executable row positions.
//
// A ScenarioSpec's rows form a grid (sizes × seed replicates × members)
// whose unit is "row position p of scenario S". Everything about a
// position is a pure function of (spec, p), so a manifest can record
// per-position completion, a cache can key results by (spec, seed,
// position), and any process can execute any subset of positions and
// land byte-identical rows in the same slots:
//
//   * scenarioRowCount(spec)        — the grid size (sizes × replicates ×
//                                     members), fixed by the spec alone;
//   * planScenarioRow(spec, p)      — position p's identity: (sizeIndex,
//                                     seedIndex, memberIndex), its n, its
//                                     position-derived instance seed, and
//                                     the canonical member spec string;
//   * runScenarioRow(spec, p)       — executes position p on the calling
//                                     thread (the scalar path);
//   * runScenarioPositions          — the executor: runs any set of
//                                     positions on an engine, batching
//                                     oblivious replicate lanes under the
//                                     spec's BatchPolicy;
//   * aggregateScenarioInstances    — regroups rows into the per-instance
//                                     portfolio view, same order.
//
// runScenario() runs every position through runScenarioPositions, and a
// service worker runs its pending positions through the same call, so
// the two cannot drift apart. Batching is output-invariant: every row
// the executor produces equals runScenarioRow's at that position.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/engine/scenario.h"

namespace dynbcast {

/// Position p's identity within the scenario grid. Everything here is a
/// pure function of (spec, position) — no execution-order dependence —
/// which is what makes the plan serializable and results mergeable.
struct ScenarioRowPlan {
  std::size_t position = 0;
  std::size_t sizeIndex = 0;
  std::size_t seedIndex = 0;    // replicate index within the size
  std::size_t memberIndex = 0;  // index into the resolved member list
  std::size_t n = 0;
  std::uint64_t instanceSeed = 0;  // SeedSequence(masterSeed) position seed
  /// Canonical spec string of the member at memberIndex: an adversary
  /// spec under adversary-driven dynamics, the dynamics spec under graph
  /// models. Sorted-key canonical form — usable as a cache key component
  /// as-is, and the row's member name.
  std::string memberSpec;
};

/// The resolved member spec list, canonicalized: the spec's adversaries
/// (or the dynamics' default list) under adversary-driven dynamics, the
/// model itself under graph models. The spec must already satisfy
/// validateScenario().
[[nodiscard]] std::vector<std::string> resolvedScenarioMemberSpecs(
    const ScenarioSpec& spec);

/// Members per (n, seed) instance — the width of the row grid.
[[nodiscard]] std::size_t scenarioMembersPerInstance(const ScenarioSpec& spec);

/// Total rows: sizes × seedsPerSize × membersPerInstance.
[[nodiscard]] std::size_t scenarioRowCount(const ScenarioSpec& spec);

/// Plans position `position` (must be < scenarioRowCount(spec)).
[[nodiscard]] ScenarioRowPlan planScenarioRow(const ScenarioSpec& spec,
                                              std::size_t position);

/// Executes position `position` on the calling thread and returns the
/// row runScenario() would produce there, byte-identical. The spec must
/// already satisfy validateScenario().
[[nodiscard]] SweepRow runScenarioRow(const ScenarioSpec& spec,
                                      std::size_t position);

/// Receives each row the executor finishes, with its position. Called
/// from pool threads, once per position, in no particular order.
using ScenarioRowSink =
    std::function<void(std::size_t position, SweepRow row)>;

/// The executor: runs every listed position (each < scenarioRowCount,
/// no duplicates) on the engine's pool and hands each finished row to
/// `sink`. Member specs are resolved once per call. Positions sharing a
/// size and an oblivious member run as runObliviousBatch lanes when the
/// spec's BatchPolicy engages (broadcast over adversary-driven trees,
/// no history; auto needs seedsPerSize >= BatchPolicy::kAutoWidth);
/// every other position runs runScenarioRow's scalar body. Each row
/// equals runScenarioRow(spec, position). The spec must already satisfy
/// validateScenario(); the lowest-indexed task's exception propagates.
void runScenarioPositions(const ScenarioSpec& spec,
                          const std::vector<std::size_t>& positions,
                          ExperimentEngine& engine,
                          const ScenarioRowSink& sink);

/// Regroups a full row vector (ordered by position) into per-instance
/// aggregates — runScenario()'s instances field, reproduced from rows.
[[nodiscard]] std::vector<SweepInstance> aggregateScenarioInstances(
    const ScenarioSpec& spec, const std::vector<SweepRow>& rows);

/// The beam-witness task seed for sizeIndex within a thm31-style sweep:
/// SeedSequence(masterSeed ^ kBeamSeedSalt).at(sizeIndex) — the exact
/// derivation `dynbcast sweep` uses, exposed so a service-side beam task
/// reproduces the CLI's witness rounds bit for bit.
inline constexpr std::uint64_t kBeamSeedSalt = 0xbea3ull;
[[nodiscard]] std::uint64_t scenarioBeamSeed(std::uint64_t masterSeed,
                                             std::size_t sizeIndex);

}  // namespace dynbcast
