#include "src/engine/task_plan.h"

#include <memory>
#include <utility>

#include "src/adversary/adversary.h"
#include "src/adversary/registry.h"
#include "src/dynamics/registry.h"
#include "src/sim/gossip.h"
#include "src/support/assert.h"
#include "src/support/seed_sequence.h"

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

[[nodiscard]] const DynamicsInfo& dynamicsEntry(const ScenarioSpec& spec) {
  return DynamicsRegistry::instance().info(
      DynamicsSpec::parse(spec.dynamics).name);
}

/// A scenario with its member specs resolved and parsed once, so that
/// planning and running a position parses nothing.
class ResolvedScenario {
 public:
  explicit ResolvedScenario(const ScenarioSpec& spec)
      : spec_(spec),
        entry_(dynamicsEntry(spec)),
        model_(entry_.mode == DynamicsMode::kGraphModel),
        memberSpecs_(resolvedScenarioMemberSpecs(spec)),
        seeds_(spec.masterSeed) {
    DYNBCAST_ASSERT(!memberSpecs_.empty() && spec.seedsPerSize > 0);
    if (model_) {
      modelSpec_ = DynamicsSpec::parse(memberSpecs_[0]);
      return;
    }
    for (const std::string& text : memberSpecs_) {
      adversaries_.push_back(AdversarySpec::parse(text));
    }
  }

  [[nodiscard]] ScenarioRowPlan plan(std::size_t position) const {
    const std::size_t width = memberSpecs_.size();
    DYNBCAST_ASSERT(position <
                    spec_.sizes.size() * spec_.seedsPerSize * width);
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

  /// One position's row, on the calling thread.
  [[nodiscard]] SweepRow run(const ScenarioRowPlan& plan) const {
    BroadcastRun run;
    if (model_) {
      const std::uint64_t seed =
          memberSeed(plan.instanceSeed, plan.memberIndex);
      const std::unique_ptr<DynamicsModel> instance =
          DynamicsRegistry::instance().make(modelSpec_, plan.n, seed);
      const std::size_t cap =
          spec_.roundCap != 0 ? spec_.roundCap : instance->defaultRoundCap();
      run = scenarioRowRunsSparse(spec_, entry_, plan.n)
                ? runFrontierDynamicsBroadcast(plan.n, *instance, cap,
                                               spec_.recordHistory, seed)
                : runDynamicsBroadcast(plan.n, *instance, cap,
                                       spec_.recordHistory);
    } else {
      const std::unique_ptr<Adversary> adversary =
          AdversaryRegistry::instance().make(adversaries_[plan.memberIndex],
                                             plan.n, plan.instanceSeed);
      run = runAdversary(plan.n, *adversary, adversaryCap(plan.n),
                         spec_.recordHistory, spec_.objective);
    }
    SweepRow row = rowOf(plan);
    row.rounds = run.rounds;
    row.completed = run.completed;
    row.history = std::move(run.history);
    return row;
  }

 private:
  /// The objective's stall cap for adversary-driven runs: gossip has no
  /// theorem bound, so it gets the wider defaultGossipRoundCap.
  [[nodiscard]] std::size_t adversaryCap(std::size_t n) const {
    if (spec_.roundCap != 0) return spec_.roundCap;
    return spec_.objective == Objective::kGossip ? defaultGossipRoundCap(n)
                                                 : defaultRoundCap(n);
  }

  /// The row's identity columns. Adversary members are named by their
  /// canonical spec and graph-model rows by the model's canonical spec,
  /// so the plan's memberSpec IS the row's member name.
  [[nodiscard]] static SweepRow rowOf(const ScenarioRowPlan& plan) {
    SweepRow row;
    row.n = plan.n;
    row.seedIndex = plan.seedIndex;
    row.instanceSeed = plan.instanceSeed;
    row.member = plan.memberSpec;
    return row;
  }

  const ScenarioSpec& spec_;
  const DynamicsInfo& entry_;
  bool model_;
  std::vector<std::string> memberSpecs_;
  SeedSequence seeds_;
  DynamicsSpec modelSpec_;                  // graph models only
  std::vector<AdversarySpec> adversaries_;  // adversary-driven only
};

}  // namespace

std::vector<std::string> resolvedScenarioMemberSpecs(
    const ScenarioSpec& spec) {
  // Canonicalize through the axis each spec belongs to, so the returned
  // strings are stable cache-key components.
  if (dynamicsEntry(spec).mode == DynamicsMode::kGraphModel) {
    return {DynamicsSpec::parse(spec.dynamics).toString()};
  }
  std::vector<std::string> texts = spec.adversaries.empty()
                                       ? defaultAdversarySpecs(spec.dynamics)
                                       : spec.adversaries;
  for (std::string& text : texts) {
    text = AdversarySpec::parse(text).toString();
  }
  return texts;
}

std::size_t scenarioMembersPerInstance(const ScenarioSpec& spec) {
  return resolvedScenarioMemberSpecs(spec).size();
}

std::size_t scenarioRowCount(const ScenarioSpec& spec) {
  return spec.sizes.size() * spec.seedsPerSize *
         scenarioMembersPerInstance(spec);
}

ScenarioRowPlan planScenarioRow(const ScenarioSpec& spec,
                                std::size_t position) {
  return ResolvedScenario(spec).plan(position);
}

SweepRow runScenarioRow(const ScenarioSpec& spec, std::size_t position) {
  const ResolvedScenario scenario(spec);
  return scenario.run(scenario.plan(position));
}

void runScenarioPositions(const ScenarioSpec& spec,
                          const std::vector<std::size_t>& positions,
                          ExperimentEngine& engine,
                          const ScenarioRowSink& sink) {
  if (positions.empty()) return;
  const ResolvedScenario scenario(spec);
  // One task per position. map()'s own seeds go unused — rows draw
  // theirs from their positions, which is what makes them independent of
  // the thread, the job count and the process.
  (void)engine.map<char>(
      positions.size(), 0, [&](std::size_t t, std::uint64_t) -> char {
        sink(positions[t], scenario.run(scenario.plan(positions[t])));
        return 0;
      });
}

std::vector<SweepInstance> aggregateScenarioInstances(
    const ScenarioSpec& spec, const std::vector<SweepRow>& rows) {
  const std::size_t width = scenarioMembersPerInstance(spec);
  const std::size_t instanceCount = spec.sizes.size() * spec.seedsPerSize;
  DYNBCAST_ASSERT(rows.size() == instanceCount * width);
  const SeedSequence seeds(spec.masterSeed);
  std::vector<SweepInstance> instances;
  instances.reserve(instanceCount);
  for (std::size_t p = 0; p < instanceCount; ++p) {
    SweepInstance aggregate;
    aggregate.n = spec.sizes[p / spec.seedsPerSize];
    aggregate.seedIndex = p % spec.seedsPerSize;
    aggregate.instanceSeed = seeds.at(p);
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

bool scenarioRowRunsSparse(const ScenarioSpec& spec,
                           const DynamicsInfo& entry, std::size_t n) {
  if (entry.mode != DynamicsMode::kGraphModel) return false;
  return spec.backend == BackendChoice::kSparse ||
         (spec.backend == BackendChoice::kAuto && entry.sparseCapable &&
          !spec.recordHistory && n > kAutoSparseThreshold);
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
