// The scenario task plan and its executor: every scenario, flattened into
// addressable, independently executable row positions.
//
// A ScenarioSpec's rows form a grid (sizes × seed replicates × members)
// whose unit is "row position p of scenario S". Everything about a
// position is a pure function of (spec, p), so a manifest can record
// per-position completion, a cache can key results by (spec, seed,
// position), and any process can execute any subset of positions and
// land byte-identical rows in the same slots.
//
// ScenarioPlan is that grid, resolved once: its constructor resolves,
// canonicalizes and parses the members, and every position is then
// planned, run or aggregated through it without parsing anything.
// runScenario() builds one plan and runs every position through its
// executor, runPositions; a service worker builds one per job and runs
// its pending positions through the same call, so the two cannot drift
// apart. planScenarioRow re-plans per call and exists for callers
// outside the library.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/adversary/beam.h"
#include "src/adversary/registry.h"
#include "src/dynamics/registry.h"
#include "src/engine/scenario.h"
#include "src/support/seed_sequence.h"

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
/// model itself under graph models. Throws std::invalid_argument on
/// unknown names.
[[nodiscard]] std::vector<std::string> resolvedScenarioMemberSpecs(
    const ScenarioSpec& spec);

/// Receives each row the executor finishes, with its position. Called
/// from pool threads, once per position, in no particular order.
using ScenarioRowSink =
    std::function<void(std::size_t position, SweepRow row)>;

/// A scenario with its member specs resolved and parsed once, so that
/// planning and running a position parses nothing. Holds its own copy
/// of the spec. The constructor throws std::invalid_argument on unknown
/// names; positions may only be planned or run once the spec satisfies
/// validateScenario().
class ScenarioPlan {
 public:
  explicit ScenarioPlan(const ScenarioSpec& spec);

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }

  /// Total rows: sizes × seedsPerSize × members.
  [[nodiscard]] std::size_t rowCount() const noexcept {
    return spec_.sizes.size() * spec_.seedsPerSize * memberSpecs_.size();
  }

  /// Plans `position` (must be < rowCount()).
  [[nodiscard]] ScenarioRowPlan row(std::size_t position) const;

  /// The row at `position` with only its identity columns set (n,
  /// seedIndex, instanceSeed, member); results are left default. The
  /// member name is the plan's canonical memberSpec.
  [[nodiscard]] SweepRow identity(std::size_t position) const;

  /// The one backend decision for a row of size n: sparse for a graph
  /// model under backend=sparse, or under backend=auto when the model is
  /// sparse-capable, no history is recorded and n > kAutoSparseThreshold;
  /// dense otherwise. The executor runs rows by it and the service's
  /// cache key names it.
  [[nodiscard]] bool runsSparse(std::size_t n) const;

  /// Executes `position` on the calling thread and returns the row
  /// runScenario() produces there, byte-identical.
  [[nodiscard]] SweepRow run(std::size_t position) const;

  /// The executor: runs every listed position (each < rowCount(), no
  /// duplicates) on the engine's pool, one task per position, and hands
  /// each finished row — equal to run(position) — to `sink`. The
  /// lowest-indexed task's exception propagates.
  void runPositions(const std::vector<std::size_t>& positions,
                    ExperimentEngine& engine,
                    const ScenarioRowSink& sink) const;

  /// Regroups a full row vector (ordered by position) into per-instance
  /// aggregates — runScenario()'s instances field, reproduced from rows.
  [[nodiscard]] std::vector<SweepInstance> aggregate(
      const std::vector<SweepRow>& rows) const;

 private:
  ScenarioSpec spec_;
  DynamicsSpec dynamics_;
  const DynamicsInfo* entry_;
  std::vector<std::string> memberSpecs_;
  SeedSequence seeds_;
  std::vector<AdversarySpec> adversaries_;  // adversary-driven only
};

/// ScenarioPlan(spec).row(position): one plan per call.
[[nodiscard]] ScenarioRowPlan planScenarioRow(const ScenarioSpec& spec,
                                              std::size_t position);

/// The beam-witness task seed for sizeIndex within a thm31-style sweep:
/// SeedSequence(masterSeed ^ kBeamSeedSalt).at(sizeIndex) — the seed
/// runScenarioBeamTask searches with.
inline constexpr std::uint64_t kBeamSeedSalt = 0xbea3ull;
[[nodiscard]] std::uint64_t scenarioBeamSeed(std::uint64_t masterSeed,
                                             std::size_t sizeIndex);

/// The thm31 beam-witness search config: the caller's width, 8 random
/// moves per state and 40% diversity. The fixed knobs change witness
/// rounds, so the service spells them into its cache key. Callers check
/// it with validateBeamConfig before any row of the sweep runs.
[[nodiscard]] BeamConfig scenarioBeamConfig(std::size_t width);

/// The beam-witness task of `dynbcast sweep` and the service for size n
/// at sizeIndex: beamSearchWitness with scenarioBeamSeed and
/// scenarioBeamConfig(width). Returns the witness's rounds when
/// verifyWitness confirms them, else 0.
[[nodiscard]] std::size_t runScenarioBeamTask(std::size_t n,
                                              std::uint64_t masterSeed,
                                              std::size_t sizeIndex,
                                              std::size_t width);

}  // namespace dynbcast
