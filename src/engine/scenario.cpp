#include "src/engine/scenario.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/adversary/registry.h"
#include "src/dynamics/registry.h"
#include "src/engine/task_plan.h"
#include "src/support/format.h"

namespace dynbcast {

static_assert(kAutoSparseThreshold == kSparseDenseMirrorMaxN,
              "auto must only pick sparse where sparse generation stops "
              "mirroring dense, so backend choice never changes rows at "
              "sizes both backends serve routinely");

Objective parseObjective(const std::string& text) {
  if (text == "broadcast") return Objective::kBroadcast;
  if (text == "gossip") return Objective::kGossip;
  throw std::invalid_argument(unknownNameMessage(
      "objective", text, {"broadcast", "gossip"}, "known: broadcast, gossip"));
}

std::string objectiveName(Objective objective) {
  return objective == Objective::kBroadcast ? "broadcast" : "gossip";
}

BackendChoice parseBackendChoice(const std::string& text) {
  if (text == "dense") return BackendChoice::kDense;
  if (text == "sparse") return BackendChoice::kSparse;
  if (text == "auto") return BackendChoice::kAuto;
  throw std::invalid_argument(
      unknownNameMessage("backend", text, {"dense", "sparse", "auto"},
                         "known: dense, sparse, auto"));
}

std::string backendChoiceName(BackendChoice backend) {
  switch (backend) {
    case BackendChoice::kDense:
      return "dense";
    case BackendChoice::kSparse:
      return "sparse";
    case BackendChoice::kAuto:
      return "auto";
  }
  return "auto";
}

std::vector<std::string> defaultAdversarySpecs(const std::string& dynamics) {
  const DynamicsSpec parsed = DynamicsSpec::parse(dynamics);
  const DynamicsInfo& entry = DynamicsRegistry::instance().info(parsed.name);
  if (entry.defaultAdversaries) {
    return entry.defaultAdversaries(parsed.params);
  }
  // Graph models are their own (only) member.
  return {parsed.toString()};
}

namespace {

/// Throws unless sizes × seeds × members fits in kMaxScenarioRows; the
/// divisions keep the product from wrapping.
void checkRowCount(const ScenarioSpec& spec, std::size_t members) {
  const std::size_t instances = spec.sizes.size();
  if (spec.seedsPerSize > kMaxScenarioRows / instances ||
      members > kMaxScenarioRows / (instances * spec.seedsPerSize)) {
    throw std::invalid_argument(
        "scenario: " + std::to_string(instances) + " sizes x " +
        std::to_string(spec.seedsPerSize) + " seeds x " +
        std::to_string(members) + " members exceeds the maximum of " +
        std::to_string(kMaxScenarioRows) + " rows (kMaxScenarioRows)");
  }
}

}  // namespace

void validateScenarioSize(std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument(
        "scenario: size 0 has no processes; every size must be >= 1");
  }
  if (n > kMaxScenarioSize) {
    throw std::invalid_argument(
        "scenario: size " + std::to_string(n) +
        " exceeds the maximum scenario size of " +
        std::to_string(kMaxScenarioSize) + " (kMaxScenarioSize)");
  }
}

void validateScenario(const ScenarioSpec& spec) {
  if (spec.seedsPerSize == 0) {
    throw std::invalid_argument("scenario: seedsPerSize must be >= 1");
  }
  if (spec.sizes.empty()) {
    throw std::invalid_argument(
        "scenario: no sizes given; a scenario needs at least one size >= 1");
  }
  for (const std::size_t n : spec.sizes) validateScenarioSize(n);
  checkRowCount(spec, 1);
  const DynamicsSpec dynamics = DynamicsSpec::parse(spec.dynamics);
  const DynamicsRegistry& dynRegistry = DynamicsRegistry::instance();
  dynRegistry.validate(dynamics, spec.sizes);
  const DynamicsInfo& entry = dynRegistry.info(dynamics.name);

  if (entry.mode != DynamicsMode::kAdversaryTrees &&
      spec.objective == Objective::kGossip) {
    throw std::invalid_argument(
        "scenario: gossip is only defined over tree dynamics here "
        "(dynamics '" + dynamics.name +
        "' supports objective=broadcast)");
  }

  if (entry.mode == DynamicsMode::kGraphModel) {
    // The model emits every round's graph itself; an adversary has no
    // move to make, so listing one is a spec error, not a no-op.
    if (!spec.adversaries.empty()) {
      throw std::invalid_argument(
          "dynamics '" + dynamics.toString() +
          "' is a graph model: it emits the per-round graphs itself, so "
          "the adversary list must be empty (got '" + spec.adversaries[0] +
          "')");
    }
    if (spec.backend == BackendChoice::kSparse && !entry.sparseCapable) {
      std::vector<std::string> capable;
      for (const std::string& name : dynRegistry.names()) {
        if (dynRegistry.info(name).sparseCapable) capable.push_back(name);
      }
      throw std::invalid_argument(
          "dynamics '" + dynamics.name +
          "' has no sparse generation path; use backend=dense or "
          "backend=auto (sparse-capable models: " + join(capable, ", ") +
          ")");
    }
    if (spec.backend == BackendChoice::kSparse && spec.recordHistory) {
      throw std::invalid_argument(
          "backend=sparse computes t* only and records no per-round "
          "history; use backend=dense or backend=auto (auto runs dense "
          "when history is wanted)");
    }
    return;  // one member per instance: checkRowCount(spec, 1) above
  }

  if (spec.backend == BackendChoice::kSparse) {
    throw std::invalid_argument(
        "dynamics '" + dynamics.name +
        "' is adversary-driven: the adversary reads the full dense "
        "simulator state, so backend=sparse cannot run it; use "
        "backend=dense or backend=auto");
  }

  const AdversaryRegistry& registry = AdversaryRegistry::instance();
  const std::vector<std::string> specs =
      spec.adversaries.empty() ? defaultAdversarySpecs(spec.dynamics)
                               : spec.adversaries;
  for (const std::string& text : specs) {
    const AdversarySpec parsed = AdversarySpec::parse(text);
    registry.validate(parsed, spec.sizes);
    if (!entry.admissibleAdversaries.empty() &&
        std::find(entry.admissibleAdversaries.begin(),
                  entry.admissibleAdversaries.end(),
                  parsed.name) == entry.admissibleAdversaries.end()) {
      throw std::invalid_argument(
          "dynamics '" + dynamics.name + "' only admits adversaries " +
          "from its restricted classes (" +
          join(entry.admissibleAdversaries, ", ") + "); got '" +
          parsed.name + "'");
    }
  }
  checkRowCount(spec, specs.size());
}

ScenarioResult runScenario(const ScenarioSpec& spec,
                           ExperimentEngine& engine) {
  validateScenario(spec);
  const ScenarioPlan plan(spec);
  std::vector<std::size_t> positions(plan.rowCount());
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  ScenarioResult result;
  result.rows.resize(positions.size());
  plan.runPositions(positions, engine,
                    [&result](std::size_t position, SweepRow row) {
                      result.rows[position] = std::move(row);
                    });
  result.instances = plan.aggregate(result.rows);
  return result;
}

}  // namespace dynbcast
