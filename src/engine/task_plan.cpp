#include "src/engine/task_plan.h"

#include <memory>
#include <utility>

#include "src/adversary/adversary.h"
#include "src/sim/gossip.h"
#include "src/support/assert.h"

namespace dynbcast {

namespace {

/// Member-index seed decorrelation for graph-model runs: a fixed odd
/// multiplier on the member index (seeds stay position-derived, so any
/// job count — or worker process — reproduces them). Matches the
/// historical nonsplit-path derivation bit for bit.
[[nodiscard]] std::uint64_t memberSeed(std::uint64_t instanceSeed,
                                       std::size_t memberIndex) {
  return instanceSeed ^ (0x9e3779b97f4a7c15ull * (memberIndex + 1));
}

}  // namespace

std::vector<std::string> resolvedScenarioMemberSpecs(
    const ScenarioSpec& spec) {
  // Canonicalize through the axis each spec belongs to, so the returned
  // strings are stable cache-key components.
  const DynamicsSpec dynamics = DynamicsSpec::parse(spec.dynamics);
  if (DynamicsRegistry::instance().info(dynamics.name).mode ==
      DynamicsMode::kGraphModel) {
    return {dynamics.toString()};
  }
  std::vector<std::string> texts = spec.adversaries.empty()
                                       ? defaultAdversarySpecs(spec.dynamics)
                                       : spec.adversaries;
  for (std::string& text : texts) {
    text = AdversarySpec::parse(text).toString();
  }
  return texts;
}

ScenarioPlan::ScenarioPlan(const ScenarioSpec& spec)
    : spec_(spec),
      dynamics_(DynamicsSpec::parse(spec.dynamics)),
      entry_(&DynamicsRegistry::instance().info(dynamics_.name)),
      memberSpecs_(resolvedScenarioMemberSpecs(spec)),
      seeds_(spec.masterSeed) {
  if (entry_->mode == DynamicsMode::kGraphModel) return;
  for (const std::string& text : memberSpecs_) {
    adversaries_.push_back(AdversarySpec::parse(text));
  }
}

ScenarioRowPlan ScenarioPlan::row(std::size_t position) const {
  DYNBCAST_ASSERT(position < rowCount());
  const std::size_t width = memberSpecs_.size();
  ScenarioRowPlan plan;
  plan.position = position;
  plan.memberIndex = position % width;
  const std::size_t instance = position / width;
  plan.seedIndex = instance % spec_.seedsPerSize;
  plan.sizeIndex = instance / spec_.seedsPerSize;
  plan.n = spec_.sizes[plan.sizeIndex];
  plan.instanceSeed = seeds_.at(instance);
  plan.memberSpec = memberSpecs_[plan.memberIndex];
  return plan;
}

SweepRow ScenarioPlan::identity(std::size_t position) const {
  ScenarioRowPlan plan = row(position);
  SweepRow row;
  row.n = plan.n;
  row.seedIndex = plan.seedIndex;
  row.instanceSeed = plan.instanceSeed;
  row.member = std::move(plan.memberSpec);
  return row;
}

bool ScenarioPlan::runsSparse(std::size_t n) const {
  if (entry_->mode != DynamicsMode::kGraphModel) return false;
  return spec_.backend == BackendChoice::kSparse ||
         (spec_.backend == BackendChoice::kAuto && entry_->sparseCapable &&
          !spec_.recordHistory && n > kAutoSparseThreshold);
}

SweepRow ScenarioPlan::run(std::size_t position) const {
  SweepRow row = identity(position);
  const std::size_t memberIndex = position % memberSpecs_.size();
  BroadcastRun run;
  std::size_t cap = spec_.roundCap;
  if (entry_->mode == DynamicsMode::kGraphModel) {
    const std::uint64_t seed = memberSeed(row.instanceSeed, memberIndex);
    const std::unique_ptr<DynamicsModel> instance =
        DynamicsRegistry::instance().make(dynamics_, row.n, seed);
    if (cap == 0) cap = instance->defaultRoundCap();
    run = runsSparse(row.n)
              ? runFrontierDynamicsBroadcast(row.n, *instance, cap, seed)
              : runDynamicsBroadcast(row.n, *instance, cap,
                                     spec_.recordHistory);
  } else {
    // Gossip has no theorem bound, so it gets the wider stall cap.
    if (cap == 0) {
      cap = spec_.objective == Objective::kGossip
                ? defaultGossipRoundCap(row.n)
                : defaultRoundCap(row.n);
    }
    const std::unique_ptr<Adversary> adversary =
        AdversaryRegistry::instance().make(adversaries_[memberIndex], row.n,
                                           row.instanceSeed);
    run = runAdversary(row.n, *adversary, cap, spec_.recordHistory,
                       spec_.objective);
  }
  row.rounds = run.rounds;
  row.completed = run.completed;
  row.history = std::move(run.history);
  return row;
}

void ScenarioPlan::runPositions(const std::vector<std::size_t>& positions,
                                ExperimentEngine& engine,
                                const ScenarioRowSink& sink) const {
  // One task per position. map()'s own seeds go unused — rows draw
  // theirs from their positions, which is what makes them independent of
  // the thread, the job count and the process.
  (void)engine.map<char>(
      positions.size(), 0, [&](std::size_t t, std::uint64_t) -> char {
        sink(positions[t], run(positions[t]));
        return 0;
      });
}

std::vector<SweepInstance> ScenarioPlan::aggregate(
    const std::vector<SweepRow>& rows) const {
  const std::size_t width = memberSpecs_.size();
  const std::size_t instanceCount = spec_.sizes.size() * spec_.seedsPerSize;
  DYNBCAST_ASSERT(rows.size() == instanceCount * width);
  std::vector<SweepInstance> instances;
  instances.reserve(instanceCount);
  for (std::size_t p = 0; p < instanceCount; ++p) {
    SweepInstance aggregate;
    aggregate.n = spec_.sizes[p / spec_.seedsPerSize];
    aggregate.seedIndex = p % spec_.seedsPerSize;
    aggregate.instanceSeed = seeds_.at(p);
    for (std::size_t m = 0; m < width; ++m) {
      const SweepRow& row = rows[p * width + m];
      // History stays in rows only — copying the per-round metrics here
      // would double the sweep's dominant allocation at large n.
      aggregate.portfolio.add({row.member, row.rounds, row.completed, {}});
    }
    instances.push_back(std::move(aggregate));
  }
  return instances;
}

ScenarioRowPlan planScenarioRow(const ScenarioSpec& spec,
                                std::size_t position) {
  return ScenarioPlan(spec).row(position);
}

std::uint64_t scenarioBeamSeed(std::uint64_t masterSeed,
                               std::size_t sizeIndex) {
  return SeedSequence(masterSeed ^ kBeamSeedSalt).at(sizeIndex);
}

BeamConfig scenarioBeamConfig(std::size_t width) {
  BeamConfig config;
  config.beamWidth = width;
  config.randomMovesPerState = 8;
  config.diversityPercent = 40;
  return config;
}

std::size_t runScenarioBeamTask(std::size_t n, std::uint64_t masterSeed,
                                std::size_t sizeIndex, std::size_t width) {
  const BeamResult witness =
      beamSearchWitness(n, scenarioBeamSeed(masterSeed, sizeIndex),
                        scenarioBeamConfig(width));
  return verifyWitness(n, witness.witness) == witness.rounds ? witness.rounds
                                                             : 0;
}

}  // namespace dynbcast
