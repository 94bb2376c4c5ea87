#include "src/service/job.h"

#include "src/dynamics/registry.h"
#include "src/support/assert.h"

namespace dynbcast {

void validateServiceRequest(const ServiceRequest& request) {
  validateScenario(request.scenario);
  if (requestWantsBeamWitnesses(request)) {
    validateBeamConfig(scenarioBeamConfig(request.beamWidth));
  }
}

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
    const BeamConfig config = scenarioBeamConfig(request.beamWidth);
    return "beam/1 n=" + std::to_string(n) + " seed=" +
           std::to_string(scenarioBeamSeed(spec.masterSeed, sizeIndex)) +
           " width=" + std::to_string(config.beamWidth) + " moves=" +
           std::to_string(config.randomMovesPerState) + " div=" +
           std::to_string(config.diversityPercent) +
           " searched=" + (searched ? "1" : "0");
  }

  // Below the mirror threshold sparse and dense rows are identical, so
  // the token normalizes to "dense" there and requests differing only in
  // backend choice share cache cells.
  const ScenarioRowPlan row = planScenarioRow(spec, position);
  const DynamicsSpec dynamics = DynamicsSpec::parse(spec.dynamics);
  const bool sparse =
      row.n > kAutoSparseThreshold &&
      scenarioRowRunsSparse(
          spec, DynamicsRegistry::instance().info(dynamics.name), row.n);
  return "row/1 obj=" + objectiveName(spec.objective) +
         " dyn=" + dynamics.toString() + " cap=" +
         std::to_string(spec.roundCap) + " backend=" +
         (sparse ? "sparse" : "dense") +
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
    result.rounds = runScenarioBeamTask(n, request.scenario.masterSeed,
                                        sizeIndex, request.beamWidth);
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
