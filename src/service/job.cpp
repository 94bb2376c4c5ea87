#include "src/service/job.h"

#include "src/support/assert.h"

namespace dynbcast {

void validateServiceRequest(const ServiceRequest& request) {
  validateScenario(request.scenario);
  if (requestWantsBeamWitnesses(request)) {
    validateBeamConfig(scenarioBeamConfig(request.beamWidth));
  }
}

ServiceJob::ServiceJob(const ServiceRequest& request)
    : scenario_(request.scenario),
      beamMaxN_(request.beamMaxN),
      beamWidth_(request.beamWidth) {
  const ScenarioSpec& spec = request.scenario;
  plan_.rowCount = scenario_.rowCount();
  plan_.beamCount =
      requestWantsBeamWitnesses(request) ? spec.sizes.size() : 0;
  rowKeyPrefix_ = "row/1 obj=" + objectiveName(spec.objective) +
                  " dyn=" + DynamicsSpec::parse(spec.dynamics).toString() +
                  " cap=" + std::to_string(spec.roundCap);
}

std::string ServiceJob::taskKey(std::size_t position) const {
  DYNBCAST_ASSERT(position < plan_.taskCount());
  const ScenarioSpec& spec = scenario_.spec();
  if (position >= plan_.rowCount) {
    const std::size_t sizeIndex = position - plan_.rowCount;
    const std::size_t n = spec.sizes[sizeIndex];
    const bool searched = n <= beamMaxN_;
    const BeamConfig config = scenarioBeamConfig(beamWidth_);
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
  const ScenarioRowPlan row = scenario_.row(position);
  const bool sparse =
      row.n > kAutoSparseThreshold && scenario_.runsSparse(row.n);
  return rowKeyPrefix_ + " backend=" + (sparse ? "sparse" : "dense") +
         " member=" + row.memberSpec + " n=" + std::to_string(row.n) +
         " seed=" + std::to_string(row.instanceSeed) +
         " mpos=" + std::to_string(row.memberIndex);
}

ServiceTaskResult ServiceJob::execute(std::size_t position) const {
  DYNBCAST_ASSERT(position < plan_.taskCount());
  if (position >= plan_.rowCount) {
    const std::size_t sizeIndex = position - plan_.rowCount;
    const ScenarioSpec& spec = scenario_.spec();
    const std::size_t n = spec.sizes[sizeIndex];
    ServiceTaskResult result;
    result.completed = true;
    if (n > beamMaxN_) return result;  // witness pass skips it
    result.rounds =
        runScenarioBeamTask(n, spec.masterSeed, sizeIndex, beamWidth_);
    return result;
  }
  const SweepRow row = scenario_.run(position);
  return {row.rounds, row.completed};
}

std::vector<SweepRow> ServiceJob::assembleRows(
    const std::vector<ServiceTaskResult>& rowResults) const {
  DYNBCAST_ASSERT(rowResults.size() == plan_.rowCount);
  std::vector<SweepRow> rows;
  rows.reserve(rowResults.size());
  for (std::size_t position = 0; position < rowResults.size(); ++position) {
    rows.push_back(scenario_.identity(position));
    rows.back().rounds = rowResults[position].rounds;
    rows.back().completed = rowResults[position].completed;
  }
  return rows;
}

ServiceJobPlan planServiceJob(const ServiceRequest& request) {
  return ServiceJob(request).plan();
}

std::string serviceTaskKey(const ServiceRequest& request,
                           std::size_t position) {
  return ServiceJob(request).taskKey(position);
}

ServiceTaskResult executeServiceTask(const ServiceRequest& request,
                                     std::size_t position) {
  return ServiceJob(request).execute(position);
}

}  // namespace dynbcast
