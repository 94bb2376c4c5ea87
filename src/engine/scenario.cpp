#include "src/engine/scenario.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "src/adversary/registry.h"
#include "src/dynamics/registry.h"
#include "src/engine/task_plan.h"

namespace dynbcast {

static_assert(kAutoSparseThreshold == kSparseDenseMirrorMaxN,
              "auto must only pick sparse where sparse generation stops "
              "mirroring dense, so backend choice never changes rows at "
              "sizes both backends serve routinely");

Objective parseObjective(const std::string& text) {
  if (text == "broadcast") return Objective::kBroadcast;
  if (text == "gossip") return Objective::kGossip;
  std::string message = "unknown objective '" + text + "'";
  const std::string suggestion =
      closestMatch(text, {"broadcast", "gossip"});
  if (!suggestion.empty()) message += "; did you mean '" + suggestion + "'?";
  message += " (known: broadcast, gossip)";
  throw std::invalid_argument(message);
}

std::string objectiveName(Objective objective) {
  return objective == Objective::kBroadcast ? "broadcast" : "gossip";
}

BackendChoice parseBackendChoice(const std::string& text) {
  if (text == "dense") return BackendChoice::kDense;
  if (text == "sparse") return BackendChoice::kSparse;
  if (text == "auto") return BackendChoice::kAuto;
  std::string message = "unknown backend '" + text + "'";
  const std::string suggestion =
      closestMatch(text, {"dense", "sparse", "auto"});
  if (!suggestion.empty()) message += "; did you mean '" + suggestion + "'?";
  message += " (known: dense, sparse, auto)";
  throw std::invalid_argument(message);
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

void validateScenario(const ScenarioSpec& spec) {
  if (spec.seedsPerSize == 0) {
    throw std::invalid_argument("scenario: seedsPerSize must be >= 1");
  }
  for (const std::size_t n : spec.sizes) {
    if (n == 0) {
      throw std::invalid_argument(
          "scenario: size 0 has no processes; every size must be >= 1");
    }
  }
  const DynamicsSpec dynamics = DynamicsSpec::parse(spec.dynamics);
  const DynamicsRegistry& dynRegistry = DynamicsRegistry::instance();
  dynRegistry.validate(dynamics);
  const DynamicsInfo& entry = dynRegistry.info(dynamics.name);

  if (entry.mode != DynamicsMode::kAdversaryTrees &&
      spec.objective == Objective::kGossip) {
    throw std::invalid_argument(
        "scenario: gossip is only defined over tree dynamics here "
        "(dynamics '" + dynamics.name +
        "' supports objective=broadcast)");
  }

  // Batching advances replicate lanes of one oblivious adversary through
  // a shared BatchBroadcastSim, which only broadcast over adversary-driven
  // trees can do. An explicit width elsewhere would be silently ignored, so
  // reject it; auto degrades to scalar without complaint.
  if (spec.batch.mode == BatchPolicy::Mode::kFixed &&
      (entry.mode != DynamicsMode::kAdversaryTrees ||
       spec.objective == Objective::kGossip)) {
    throw std::invalid_argument(
        "scenario: batch=" + batchPolicyName(spec.batch) +
        " only applies to objective=broadcast over adversary-driven tree "
        "dynamics (got dynamics '" + dynamics.name + "', objective=" +
        objectiveName(spec.objective) +
        "); use batch=auto or batch=off");
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
      std::string capable;
      for (const std::string& name : dynRegistry.names()) {
        if (!dynRegistry.info(name).sparseCapable) continue;
        if (!capable.empty()) capable += ", ";
        capable += name;
      }
      throw std::invalid_argument(
          "dynamics '" + dynamics.name +
          "' has no sparse generation path; use backend=dense or "
          "backend=auto (sparse-capable models: " + capable + ")");
    }
    return;
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
    registry.validate(parsed);
    if (!entry.admissibleAdversaries.empty() &&
        std::find(entry.admissibleAdversaries.begin(),
                  entry.admissibleAdversaries.end(),
                  parsed.name) == entry.admissibleAdversaries.end()) {
      std::string admitted;
      for (const std::string& name : entry.admissibleAdversaries) {
        if (!admitted.empty()) admitted += ", ";
        admitted += name;
      }
      throw std::invalid_argument(
          "dynamics '" + dynamics.name + "' only admits adversaries " +
          "from its restricted classes (" + admitted + "); got '" +
          parsed.name + "'");
    }
  }
}

ScenarioResult runScenario(const ScenarioSpec& spec,
                           ExperimentEngine& engine) {
  validateScenario(spec);
  std::vector<std::size_t> positions(scenarioRowCount(spec));
  std::iota(positions.begin(), positions.end(), std::size_t{0});
  ScenarioResult result;
  result.rows.resize(positions.size());
  runScenarioPositions(spec, positions, engine,
                       [&result](std::size_t position, SweepRow row) {
                         result.rows[position] = std::move(row);
                       });
  result.instances = aggregateScenarioInstances(spec, result.rows);
  return result;
}

}  // namespace dynbcast
