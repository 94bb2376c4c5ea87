#include "src/adversary/beam.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/adversary/adaptive.h"
#include "src/adversary/search_tree.h"
#include "src/sim/broadcast_sim.h"
#include "src/support/assert.h"
#include "src/support/format.h"
#include "src/support/hashing.h"
#include "src/tree/families.h"
#include "src/tree/generators.h"

namespace dynbcast {

namespace {

/// A frontier state: the game position plus its arena node (whose parent
/// chain is the lineage that reached it). The moves themselves live in
/// the arena, not here.
struct FrontierState {
  std::vector<DynBitset> heard;
  std::vector<std::size_t> coverage;
  double potential = 0.0;
  std::uint32_t nodeId = SearchTreeArena::kNoNode;
};

/// A successor candidate awaiting pruning; committed to the arena only
/// if it survives (pruned candidates never allocate a node).
struct Candidate {
  std::vector<DynBitset> heard;
  std::vector<std::size_t> coverage;
  double potential = 0.0;
  std::uint32_t parentId = SearchTreeArena::kNoNode;
  RootedTree move = RootedTree::trivial();
};

std::vector<RootedTree> movesFor(const FrontierState& state, Rng& rng,
                                 const BeamConfig& config,
                                 EvalScratch& scratch) {
  const std::size_t n = state.heard.size();
  std::vector<RootedTree> moves;
  if (config.structuredMoves) {
    const std::vector<std::size_t> base = identityOrder(n);
    for (std::size_t depth = 1; depth <= 2; ++depth) {
      moves.push_back(makePath(freezeOrdering(
          state.heard, coverageLeaders(state.coverage, depth), base)));
    }
    // Every damage tree of this state shares one binding (transpose +
    // weights) in the search's scratch.
    DamageTrees damageTrees(state.heard, state.coverage, scratch);
    moves.push_back(damageTrees.greedy(leastCoveredProcess(state.coverage)));
    moves.push_back(damageTrees.greedy(rng.uniform(n)));
    // Noisy damage trees: balanced-coverage structure with variety — the
    // beam's main exploration device (plain random trees are too weak).
    for (std::size_t i = 0; i < config.randomMovesPerState; ++i) {
      if (config.noiseAmplitude > 0.0) {
        moves.push_back(damageTrees.noisy(
            rng.uniform(n), config.noiseAmplitude, rng));
      } else {
        moves.push_back(damageTrees.greedy(rng.uniform(n)));
      }
    }
  }
  for (std::size_t i = 0; i < config.randomMovesPerState / 2 + 1; ++i) {
    if (i % 2 == 0) {
      moves.push_back(randomPath(n, rng));
    } else {
      moves.push_back(randomRootedTree(n, rng));
    }
  }
  return moves;
}

/// True when `moves[0..index)` already contains moves[index] — the same
/// parent array reached again through a different generator. Duplicate
/// moves from one state produce byte-identical successors, so skipping
/// them before evaluation changes nothing downstream.
bool isDuplicateMove(const std::vector<RootedTree>& moves,
                     std::size_t index) {
  for (std::size_t i = 0; i < index; ++i) {
    if (moves[i] == moves[index]) return true;
  }
  return false;
}

}  // namespace

void validateBeamConfig(const BeamConfig& config) {
  if (config.beamWidth < 1) {
    throw std::invalid_argument("beam config: width must be >= 1 (got " +
                                std::to_string(config.beamWidth) + ")");
  }
  if (config.beamWidth > kMaxBeamWidth) {
    throw std::invalid_argument(
        "beam config: width must be <= kMaxBeamWidth = " +
        std::to_string(kMaxBeamWidth) + " (got " +
        std::to_string(config.beamWidth) + ")");
  }
  if (config.diversityPercent > 100) {
    throw std::invalid_argument(
        "beam config: diversity must be <= 100 percent (got " +
        std::to_string(config.diversityPercent) + ")");
  }
  // The damage-tree kernel's input contract: every weight positive and
  // never NaN, so the noise factor 1 + noise·u must be finite and >= 1.
  if (!std::isfinite(config.noiseAmplitude) || config.noiseAmplitude < 0.0) {
    throw std::invalid_argument(
        "beam config: noise must be finite and >= 0 (got " +
        fmtDouble(config.noiseAmplitude, 3) + ")");
  }
}

BeamResult beamSearchWitness(std::size_t n, std::uint64_t seed,
                             BeamConfig config) {
  DYNBCAST_ASSERT(n > 0);
  validateBeamConfig(config);
  // One process is broadcast-complete at round 0: the witness is empty.
  if (n == 1) return {};
  Rng rng(seed);
  const std::size_t cap =
      config.maxRounds != 0 ? config.maxRounds : n * n;

  // The explored tree: frontier states hold one arena reference each;
  // pruned branches are reclaimed as soon as their last leaf dies.
  SearchTreeArena arena(config.beamWidth * 8 + 64);
  TranspositionTable table(config.beamWidth * 16);

  // Level 0: the identity state.
  FrontierState initial;
  initial.heard.assign(n, DynBitset(n));
  for (std::size_t y = 0; y < n; ++y) initial.heard[y].set(y);
  initial.coverage.assign(n, 1);
  initial.potential = coveragePotential(initial.coverage);
  initial.nodeId = arena.acquireRoot();

  std::vector<FrontierState> frontier;
  frontier.push_back(std::move(initial));

  BeamResult result;
  // One scratch arena serves every candidate evaluation in the search:
  // rejected candidates (the vast majority) no longer allocate anything,
  // and survivors copy their post-move state straight out of the scratch
  // instead of re-applying the tree to a fresh matrix.
  EvalScratch scratch = EvalScratch::forProcessCount(n);
  // The final move of any lineage completes broadcast, so the achieved
  // rounds = (levels survived) + 1; expanding only while survived + 1 <
  // cap keeps the reported rounds within the documented maxRounds cap.
  std::size_t survived = 0;
  while (survived + 1 < cap) {
    std::vector<Candidate> successors;
    table.clear();
    for (FrontierState& state : frontier) {
      std::vector<RootedTree> moves = movesFor(state, rng, config, scratch);
      for (std::size_t mi = 0; mi < moves.size(); ++mi) {
        ++result.movesGenerated;
        if (isDuplicateMove(moves, mi)) continue;
        ++result.statesExpanded;
        const DelayScore score =
            evaluateCandidate(state.heard, state.coverage, moves[mi],
                              scratch);
        if (score.finishes) continue;  // dead lineage beyond this move
        // Collision-safe dedup: a digest hit is only merged after the
        // full heard matrices compare equal (first-seen state wins).
        const std::uint64_t digest = hashHeardMatrix(scratch.heard);
        const TranspositionTable::InsertResult ins = table.insertOrFind(
            digest, static_cast<std::uint32_t>(successors.size()),
            [&](std::uint32_t payload) {
              return successors[payload].heard == scratch.heard;
            });
        if (!ins.inserted) {
          ++result.transpositionHits;
          continue;
        }
        Candidate next;
        next.heard = scratch.heard;
        next.coverage = scratch.coverage;
        next.potential = score.potential;
        next.parentId = state.nodeId;
        next.move = std::move(moves[mi]);
        successors.push_back(std::move(next));
      }
    }
    result.uniqueStates += successors.size();
    result.hashCollisions = table.hashCollisions();
    if (successors.empty()) break;  // every move finishes: game over
    // Prune: elite slots by ascending potential, the rest random.
    if (successors.size() > config.beamWidth) {
      const std::size_t elite =
          config.beamWidth -
          config.beamWidth * config.diversityPercent / 100;
      std::partial_sort(successors.begin(),
                        successors.begin() +
                            static_cast<std::ptrdiff_t>(elite),
                        successors.end(),
                        [](const Candidate& a, const Candidate& b) {
                          return a.potential < b.potential;
                        });
      // Shuffle the tail and keep the first (beamWidth − elite) of it.
      for (std::size_t i = elite; i < successors.size(); ++i) {
        const std::size_t j =
            i + rng.uniform(successors.size() - i);
        std::swap(successors[i], successors[j]);
      }
      successors.resize(config.beamWidth);
    }
    // Commit survivors to the arena, then drop the old frontier's
    // references; branches with no surviving descendant are reclaimed.
    std::vector<FrontierState> next;
    next.reserve(successors.size());
    for (Candidate& c : successors) {
      FrontierState s;
      s.heard = std::move(c.heard);
      s.coverage = std::move(c.coverage);
      s.potential = c.potential;
      s.nodeId = arena.acquireChild(c.parentId, std::move(c.move));
      next.push_back(std::move(s));
    }
    for (const FrontierState& old : frontier) arena.release(old.nodeId);
    frontier = std::move(next);
    ++survived;
  }

  result.rounds = survived + 1;
  result.arenaPeakNodes = arena.peakLiveNodes();

  // Reconstruct the witness from the frontier's first state (all states
  // in the final frontier achieve the same length) by walking arena
  // parents, then append one finishing move.
  std::vector<RootedTree> witness = arena.lineage(frontier.front().nodeId);
  DYNBCAST_ASSERT(witness.size() == survived);
  // Final finishing move: from the deepest state, any move ends the game
  // within a few rounds; find one that finishes immediately (a star from
  // the process with the largest heard set always does after one round
  // if its heard set is full; otherwise search the structured moves).
  {
    const FrontierState& last = frontier.front();
    bool placed = false;
    Rng finisher(seed ^ 0xfeedull);
    for (int attempt = 0; attempt < 512 && !placed; ++attempt) {
      RootedTree move = attempt == 0 ? makeStar(n, 0)
                                     : randomRootedTree(n, finisher);
      const DelayScore s =
          evaluateCandidate(last.heard, last.coverage, move, scratch);
      if (s.finishes) {
        witness.push_back(std::move(move));
        placed = true;
      }
    }
    if (!placed) {
      // Theoretically impossible to need more, but stay safe: replay will
      // then report a shorter/longer round count and the caller notices.
      witness.push_back(makeStar(n, 0));
    }
  }
  for (const FrontierState& state : frontier) arena.release(state.nodeId);
  result.witness = std::move(witness);
  return result;
}

std::size_t verifyWitness(std::size_t n,
                          const std::vector<RootedTree>& trees) {
  BroadcastSim sim(n);
  for (const RootedTree& t : trees) {
    sim.applyTree(t);
    if (sim.broadcastDone()) return sim.round();
  }
  return 0;
}

}  // namespace dynbcast
