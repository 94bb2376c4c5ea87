#include "src/engine/task_plan.h"

#include <algorithm>
#include <map>
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

  /// Lanes per batch task for this spec, or 1 when nothing batches:
  /// batching needs broadcast over adversary-driven trees without
  /// history, and auto engages only once a cell has a full batch of
  /// replicates.
  [[nodiscard]] std::size_t batchWidth() const {
    if (model_ || spec_.objective != Objective::kBroadcast ||
        spec_.recordHistory) {
      return 1;
    }
    switch (spec_.batch.mode) {
      case BatchPolicy::Mode::kOff:
        return 1;
      case BatchPolicy::Mode::kFixed:
        DYNBCAST_ASSERT(spec_.batch.width >= 1);
        return spec_.batch.width;
      case BatchPolicy::Mode::kAuto:
        break;
    }
    return spec_.seedsPerSize >= BatchPolicy::kAutoWidth
               ? BatchPolicy::kAutoWidth
               : 1;
  }

  [[nodiscard]] std::unique_ptr<Adversary> makeAdversary(
      const ScenarioRowPlan& plan) const {
    return AdversaryRegistry::instance().make(adversaries_[plan.memberIndex],
                                              plan.n, plan.instanceSeed);
  }

  /// The scalar body: one position, on the calling thread.
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
      const std::unique_ptr<Adversary> adversary = makeAdversary(plan);
      run = runAdversary(plan.n, *adversary, adversaryCap(plan.n),
                         spec_.recordHistory, spec_.objective);
    }
    SweepRow row = rowOf(plan);
    row.rounds = run.rounds;
    row.completed = run.completed;
    row.history = std::move(run.history);
    return row;
  }

  /// Replicates of one (size, oblivious member) cell in lockstep; lane i
  /// is run(lanes[i]) without history.
  [[nodiscard]] std::vector<SweepRow> runBatch(
      const std::vector<ScenarioRowPlan>& lanes) const {
    std::vector<std::unique_ptr<Adversary>> owners;
    std::vector<Adversary*> adversaries;
    owners.reserve(lanes.size());
    adversaries.reserve(lanes.size());
    for (const ScenarioRowPlan& lane : lanes) {
      owners.push_back(makeAdversary(lane));
      adversaries.push_back(owners.back().get());
    }
    const std::size_t n = lanes.front().n;
    const std::vector<BroadcastRun> runs =
        runObliviousBatch(n, adversaries, adversaryCap(n));
    std::vector<SweepRow> rows;
    rows.reserve(lanes.size());
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      rows.push_back(rowOf(lanes[i]));
      rows.back().rounds = runs[i].rounds;
      rows.back().completed = runs[i].completed;
    }
    return rows;
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

  // Plan (serial, cheap): group the positions by (size, member) cell.
  // When the batch policy engages and a probe instance of the cell's
  // member reports itself oblivious, the cell's positions chunk into
  // lockstep lanes; otherwise each position is its own task.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<ScenarioRowPlan>>
      cells;
  for (const std::size_t position : positions) {
    ScenarioRowPlan plan = scenario.plan(position);
    cells[{plan.sizeIndex, plan.memberIndex}].push_back(std::move(plan));
  }
  const std::size_t width = scenario.batchWidth();
  std::vector<std::vector<ScenarioRowPlan>> tasks;
  for (const auto& [cell, plans] : cells) {
    const std::size_t lanes =
        width > 1 && scenario.makeAdversary(plans.front())->oblivious()
            ? width
            : 1;
    for (std::size_t i = 0; i < plans.size(); i += lanes) {
      tasks.emplace_back(plans.begin() + i,
                         plans.begin() + std::min(i + lanes, plans.size()));
    }
  }

  // Run: each task hands its rows to the sink. map()'s own seeds go
  // unused — rows draw theirs from their positions, which is what makes
  // them independent of the thread, the job count and the process.
  (void)engine.map<char>(
      tasks.size(), 0,
      [&](std::size_t t, std::uint64_t) -> char {
        const std::vector<ScenarioRowPlan>& lanes = tasks[t];
        if (lanes.size() == 1) {
          sink(lanes[0].position, scenario.run(lanes[0]));
          return 0;
        }
        std::vector<SweepRow> rows = scenario.runBatch(lanes);
        for (std::size_t i = 0; i < lanes.size(); ++i) {
          sink(lanes[i].position, std::move(rows[i]));
        }
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
