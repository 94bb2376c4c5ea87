#include "src/dynamics/dynamics.h"

#include <stdexcept>

#include "src/graph/properties.h"
#include "src/support/assert.h"

namespace dynbcast {

void DynamicsModel::nextSparseRound(SparseRound&) {
  throw std::logic_error("dynamics model '" + name() +
                         "' has no sparse generation path "
                         "(supportsSparseRounds() is false)");
}

std::string dynamicsClassName(DynamicsClass c) {
  switch (c) {
    case DynamicsClass::kRootedTree:
      return "rooted-tree";
    case DynamicsClass::kNonsplit:
      return "nonsplit";
    case DynamicsClass::kNone:
      return "none";
  }
  return "none";
}

namespace {

void assertClass(const BitMatrix& g, std::size_t n, DynamicsClass c) {
  DYNBCAST_ASSERT_MSG(g.dim() == n, "dynamics model emitted the wrong size");
  DYNBCAST_ASSERT_MSG(g.isReflexive(),
                      "dynamics model emitted a non-reflexive graph");
  switch (c) {
    case DynamicsClass::kRootedTree:
      DYNBCAST_ASSERT_MSG(isRootedTreeWithSelfLoops(g),
                          "dynamics model declared rooted-tree but emitted "
                          "a graph outside T_n");
      break;
    case DynamicsClass::kNonsplit:
      DYNBCAST_ASSERT_MSG(isNonsplit(g),
                          "dynamics model declared nonsplit but emitted a "
                          "split graph");
      break;
    case DynamicsClass::kNone:
      break;
  }
}

}  // namespace

BroadcastRun runDynamicsBroadcast(std::size_t n, DynamicsModel& model,
                                  std::size_t maxRounds, bool recordHistory) {
  model.reset();
  BroadcastSim sim(n);
  return runUntil(sim, Objective::kBroadcast, maxRounds, recordHistory,
                  [&model, n](BroadcastSim& state) {
                    const BitMatrix g = model.nextGraph(state);
                    assertClass(g, n, model.graphClass());
                    state.applyGraph(g);
                  });
}

BroadcastRun runFrontierDynamicsBroadcast(std::size_t n, DynamicsModel& model,
                                          std::size_t maxRounds,
                                          std::uint64_t sampleSeed) {
  DYNBCAST_ASSERT_MSG(model.supportsSparseRounds(),
                      "the sparse driver needs a sparse-capable model");
  DynamicsRoundSource source(model);
  FrontierTStarOptions options;
  options.maxRounds = maxRounds;
  options.sampleSeed = sampleSeed;
  const FrontierTStarResult tstar = runFrontierTStar(n, source, options);
  BroadcastRun run;
  run.rounds = tstar.rounds;
  run.completed = tstar.completed;
  return run;
}

}  // namespace dynbcast
