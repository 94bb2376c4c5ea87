#include "src/service/job.h"

#include "src/adversary/beam.h"
#include "src/dynamics/registry.h"
#include "src/support/assert.h"

namespace dynbcast {

namespace {

/// The backend that actually runs a row of size n, as a cache-key
/// token. Below the mirror threshold sparse and dense produce identical
/// rows, so everything normalizes to "dense" and requests differing
/// only in backend choice share cache cells. Above it, the resolution
/// mirrors runScenarioRow's: explicit sparse, or auto over a
/// sparse-capable model. Registry sparseCapable and the constructed
/// model's supportsSparseRounds agree; validateScenario enforces the
/// former wherever the latter could run.
[[nodiscard]] std::string rowBackendToken(const ScenarioSpec& spec,
                                          const DynamicsInfo& entry,
                                          std::size_t n) {
  if (entry.mode == DynamicsMode::kAdversaryTrees) return "dense";
  if (n <= kAutoSparseThreshold) return "dense";
  const bool sparse = spec.backend == BackendChoice::kSparse ||
                      (spec.backend == BackendChoice::kAuto &&
                       entry.sparseCapable && !spec.recordHistory);
  return sparse ? "sparse" : "dense";
}

[[nodiscard]] BeamConfig requestBeamConfig(const ServiceRequest& request) {
  // The sweep subcommand's fixed search knobs; width is the one the
  // request can vary. Changing the fixed values changes witness rounds,
  // so they are spelled into the cache key below.
  BeamConfig cfg;
  cfg.beamWidth = request.beamWidth;
  cfg.randomMovesPerState = 8;
  cfg.diversityPercent = 40;
  return cfg;
}

}  // namespace

ServiceJobPlan planServiceJob(const ServiceRequest& request) {
  ServiceJobPlan plan;
  plan.rowCount = scenarioRowCount(request.scenario);
  plan.beamCount = requestWantsBeamWitnesses(request)
                       ? request.scenario.sizes.size()
                       : 0;
  return plan;
}

std::string serviceTaskKey(const ServiceRequest& request,
                           std::size_t position) {
  const ScenarioSpec& spec = request.scenario;
  const ServiceJobPlan plan = planServiceJob(request);
  DYNBCAST_ASSERT(position < plan.taskCount());

  if (position >= plan.rowCount) {
    const std::size_t sizeIndex = position - plan.rowCount;
    const std::size_t n = spec.sizes[sizeIndex];
    const bool searched = n <= request.beamMaxN;
    return "beam/1 n=" + std::to_string(n) + " seed=" +
           std::to_string(scenarioBeamSeed(spec.masterSeed, sizeIndex)) +
           " width=" + std::to_string(request.beamWidth) +
           " moves=8 div=40 searched=" + (searched ? "1" : "0");
  }

  const ScenarioRowPlan row = planScenarioRow(spec, position);
  const DynamicsSpec dynamics = DynamicsSpec::parse(spec.dynamics);
  const DynamicsInfo& entry =
      DynamicsRegistry::instance().info(dynamics.name);
  return "row/1 obj=" + objectiveName(spec.objective) +
         " dyn=" + dynamics.toString() + " cap=" +
         std::to_string(spec.roundCap) + " backend=" +
         rowBackendToken(spec, entry, row.n) +
         " member=" + row.memberSpec +
         " n=" + std::to_string(row.n) + " seed=" +
         std::to_string(row.instanceSeed) + " mpos=" +
         std::to_string(row.memberIndex);
}

ServiceTaskResult executeServiceTask(const ServiceRequest& request,
                                     std::size_t position) {
  const ServiceJobPlan plan = planServiceJob(request);
  DYNBCAST_ASSERT(position < plan.taskCount());

  if (position >= plan.rowCount) {
    const std::size_t sizeIndex = position - plan.rowCount;
    const std::size_t n = request.scenario.sizes[sizeIndex];
    ServiceTaskResult result;
    result.completed = true;
    if (n > request.beamMaxN) return result;  // witness pass skips it
    const BeamResult witness = beamSearchWitness(
        n, scenarioBeamSeed(request.scenario.masterSeed, sizeIndex),
        requestBeamConfig(request));
    result.rounds = verifyWitness(n, witness.witness) == witness.rounds
                        ? witness.rounds
                        : 0;
    return result;
  }

  const SweepRow row = runScenarioRow(request.scenario, position);
  return {row.rounds, row.completed};
}

std::vector<SweepRow> assembleServiceRows(
    const ScenarioSpec& spec,
    const std::vector<ServiceTaskResult>& rowResults) {
  DYNBCAST_ASSERT(rowResults.size() == scenarioRowCount(spec));
  std::vector<SweepRow> rows;
  rows.reserve(rowResults.size());
  for (std::size_t position = 0; position < rowResults.size(); ++position) {
    const ScenarioRowPlan plan = planScenarioRow(spec, position);
    SweepRow row;
    row.n = plan.n;
    row.seedIndex = plan.seedIndex;
    row.instanceSeed = plan.instanceSeed;
    // Member naming: membersFromSpecs names members by the canonical
    // spec string, and graph-model rows carry the model's canonical
    // spec, so the plan's memberSpec IS the row's member name.
    row.member = plan.memberSpec;
    row.rounds = rowResults[position].rounds;
    row.completed = rowResults[position].completed;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace dynbcast
