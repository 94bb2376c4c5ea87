// The replay wrappers below ("beam", "exact") reset() to the start of
// their witness sequence; replay determinism is gated by the named suite.
// dynbcast-lint: replay-test(BeamReplayIsDeterministicAndVerified)
#include "src/adversary/registry.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/adversary/adaptive.h"
#include "src/adversary/beam.h"
#include "src/adversary/exact_solver.h"
#include "src/adversary/local_search.h"
#include "src/adversary/lookahead.h"
#include "src/adversary/oblivious.h"
#include "src/tree/families.h"

namespace dynbcast {

namespace {

/// Replays a lazily computed tree sequence; once exhausted (which a valid
/// witness only reaches after broadcast completes) it falls back to the
/// identity path so a capped run still gets legal trees.
class ReplayAdversary : public Adversary {
 public:
  ReplayAdversary(std::size_t n, std::string name)
      : n_(n), name_(std::move(name)) {}

  RootedTree nextTree(const BroadcastSim& state) override {
    (void)state;
    if (!computed_) {
      witness_ = computeWitness();
      computed_ = true;
    }
    if (index_ < witness_.size()) return witness_[index_++];
    return makePath(n_);
  }

  std::string name() const override { return name_; }

  void reset() override { index_ = 0; }

 protected:
  [[nodiscard]] virtual std::vector<RootedTree> computeWitness() = 0;

  std::size_t n_;

 private:
  std::string name_;
  std::vector<RootedTree> witness_;
  bool computed_ = false;
  std::size_t index_ = 0;
};

/// "beam": the offline beam witness search packaged as an online
/// adversary — the search runs once on first use (deterministic for the
/// instance seed) and the winning tree sequence is replayed. Its name is
/// the canonical form of the exact spec it was built from, so rebuilding
/// from name() reproduces the same configuration.
class BeamWitnessAdversary final : public ReplayAdversary {
 public:
  BeamWitnessAdversary(std::size_t n, std::uint64_t seed, BeamConfig config,
                       std::string name)
      : ReplayAdversary(n, std::move(name)), seed_(seed), config_(config) {}

 protected:
  std::vector<RootedTree> computeWitness() override {
    return beamSearchWitness(n_, seed_, config_).witness;
  }

 private:
  std::uint64_t seed_;
  BeamConfig config_;
};

/// "exact": optimal play extracted from the exhaustive solver
/// (n ≤ ExactSolver::kMaxPracticalN).
class ExactReplayAdversary final : public ReplayAdversary {
 public:
  explicit ExactReplayAdversary(std::size_t n) : ReplayAdversary(n, "exact") {}

 protected:
  std::vector<RootedTree> computeWitness() override {
    return ExactSolver(n_).optimalPlay();
  }
};

/// The restricted-class members' size parameter (default 2) must satisfy
/// 1 <= key <= n - slack: a tree on n nodes has at most n-1 leaves or
/// inner nodes (slack 1) and a broom handle of at most n (slack 0).
[[nodiscard]] SpecValueCheck classParamCheck(const std::string& name,
                                             const std::string& key,
                                             std::size_t slack) {
  return [=](const SpecParams& params, std::size_t n) {
    const std::size_t value = params.getUInt(key, 2);
    if (value < 1 || value > n - std::min(n, slack)) {
      throw std::invalid_argument(
          "adversary '" + name + "': " + key + " must satisfy 1 <= " + key +
          " <= " + (slack == 0 ? "n" : "n-1") + " (got " + key + "=" +
          std::to_string(value) + ", n=" + std::to_string(n) + ")");
    }
  };
}

// The config builders below convert every key, so validate() surfaces
// conversion errors and the factories that call them again cannot throw.

[[nodiscard]] GreedyDelayConfig greedyDelayConfig(const SpecParams& params) {
  GreedyDelayConfig config;
  config.freezeDepthMax = params.getUInt("freeze-max", config.freezeDepthMax);
  config.randomPaths = params.getUInt("rand-paths", config.randomPaths);
  config.randomTrees = params.getUInt("rand-trees", config.randomTrees);
  config.damageTreeRoots =
      params.getUInt("damage-roots", config.damageTreeRoots);
  return config;
}

[[nodiscard]] LocalSearchConfig localSearchConfig(const SpecParams& params) {
  LocalSearchConfig config;
  config.iterations = params.getUInt("iters", config.iterations);
  config.freezeDepth = params.getUInt("freeze-depth", config.freezeDepth);
  config.reversalProbability =
      params.getDouble("rev-p", config.reversalProbability);
  return config;
}

[[nodiscard]] LookaheadConfig lookaheadConfig(const SpecParams& params) {
  LookaheadConfig config;
  config.depth = params.getUInt("depth", config.depth);
  config.randomMoves = params.getUInt("rand", config.randomMoves);
  config.damageRoots = params.getUInt("damage-roots", config.damageRoots);
  return config;
}

[[nodiscard]] BeamConfig beamConfig(const SpecParams& params) {
  BeamConfig config;
  config.beamWidth = params.getUInt("width", config.beamWidth);
  config.randomMovesPerState =
      params.getUInt("rand-moves", config.randomMovesPerState);
  config.noiseAmplitude = params.getDouble("noise", config.noiseAmplitude);
  config.diversityPercent =
      params.getUInt("diversity", config.diversityPercent);
  config.maxRounds = params.getUInt("max-rounds", config.maxRounds);
  return config;
}

}  // namespace

// Seeded factories apply the historical standardPortfolio salts
// (random-path ^0x5eed, greedy-delay ^0x9eed, local-search ^0xf00d,
// k-inner ^0xabcd), so registry-built portfolio sweeps reproduce the
// committed golden CSVs bit for bit. Callers that previously salted
// their own seeds before constructing adversaries directly (the migrated
// benches) now get a differently-derived — but equally deterministic —
// stream.
void registerBuiltins(AdversaryRegistry& reg) {
  // Oblivious baselines -----------------------------------------------------
  reg.add({"static-path",
           "repeats the identity path; t* = n-1 exactly (paper §2)",
           {},
           [](std::size_t n, std::uint64_t, const SpecParams&) {
             return std::make_unique<StaticPathAdversary>(n);
           },
           nullptr});
  reg.add({"alternating-path",
           "ping-pong between a path and its reversal; completes gossip "
           "in Theta(n)",
           {},
           [](std::size_t n, std::uint64_t, const SpecParams&) {
             return std::make_unique<AlternatingPathAdversary>(n);
           },
           nullptr});
  reg.add({"random-tree",
           "a fresh uniformly random rooted tree every round (§5 baseline)",
           {},
           [](std::size_t n, std::uint64_t seed, const SpecParams&) {
             return std::make_unique<UniformRandomAdversary>(n, seed);
           },
           nullptr});
  reg.add({"random-path",
           "a path over a fresh random permutation every round",
           {},
           [](std::size_t n, std::uint64_t seed, const SpecParams&) {
             return std::make_unique<RandomPathAdversary>(n,
                                                          seed ^ 0x5eedull);
           },
           nullptr});
  reg.add({"two-phase",
           "oblivious lower-bound line: a chain shrinking from both ends, "
           "then a cut circle; t* = ceil((3n-1)/2)-2 exactly",
           {},
           [](std::size_t n, std::uint64_t, const SpecParams&) {
             return std::make_unique<TwoPhaseAdversary>(n);
           },
           nullptr});
  reg.add({"heard-asc-path",
           "path ordered by |Heard| ascending",
           {},
           [](std::size_t n, std::uint64_t, const SpecParams&) {
             return std::make_unique<HeardOrderPathAdversary>(n, true);
           },
           nullptr});
  reg.add({"heard-desc-path",
           "path ordered by |Heard| descending",
           {},
           [](std::size_t n, std::uint64_t, const SpecParams&) {
             return std::make_unique<HeardOrderPathAdversary>(n, false);
           },
           nullptr});

  // Restricted classes of [14] ---------------------------------------------
  reg.add({"k-leaf",
           "fresh random tree with exactly k leaves every round "
           "(restricted class of [14], O(kn) broadcast)",
           {{"k", "2", "exact number of leaves (1 <= k <= n-1)"}},
           [](std::size_t n, std::uint64_t seed, const SpecParams& params) {
             return std::make_unique<KLeafAdversary>(n, params.getUInt("k", 2),
                                                     seed);
           },
           classParamCheck("k-leaf", "k", 1)});
  reg.add({"k-inner",
           "fresh random tree with exactly k inner nodes every round "
           "(restricted class of [14], O(kn) broadcast)",
           {{"k", "2", "exact number of inner nodes (1 <= k <= n-1)"}},
           [](std::size_t n, std::uint64_t seed, const SpecParams& params) {
             return std::make_unique<KInnerAdversary>(
                 n, params.getUInt("k", 2), seed ^ 0xabcdull);
           },
           classParamCheck("k-inner", "k", 1)});
  reg.add({"freeze-broom",
           "delaying member of BOTH restricted classes: broom with a "
           "fixed-length handle kept in stable freeze order",
           {{"handle", "2", "handle length (1 <= handle <= n)"}},
           [](std::size_t n, std::uint64_t, const SpecParams& params) {
             return std::make_unique<FreezeBroomAdversary>(
                 n, params.getUInt("handle", 2));
           },
           classParamCheck("freeze-broom", "handle", 0)});

  // Adaptive delayers -------------------------------------------------------
  reg.add({"freeze-path",
           "stable-partition path freezing the top-depth coverage leaders",
           {{"depth", "2", "number of leaders frozen (>= 1)"}},
           [](std::size_t n, std::uint64_t, const SpecParams& params) {
             return std::make_unique<FreezePathAdversary>(
                 n, params.getUInt("depth", 2));
           },
           [](const SpecParams& params, std::size_t) {
             if (params.getUInt("depth", 2) < 1) {
               throw std::invalid_argument(
                   "adversary 'freeze-path': depth must be >= 1");
             }
           }});
  reg.add({"greedy-delay",
           "portfolio-greedy delayer: plays the least damaging candidate "
           "tree one round ahead",
           {{"freeze-max", "4", "stable freezes with depth 1..freeze-max"},
            {"rand-paths", "3", "random path candidates per round"},
            {"rand-trees", "2", "uniform random tree candidates per round"},
            {"damage-roots", "3", "damage-greedy tree roots per round"}},
           [](std::size_t n, std::uint64_t seed, const SpecParams& params) {
             return std::make_unique<GreedyDelayAdversary>(
                 n, seed ^ 0x9eedull, greedyDelayConfig(params));
           },
           [](const SpecParams& params, std::size_t) {
             (void)greedyDelayConfig(params);
           }});
  reg.add({"local-search",
           "per-round hill climbing over path orderings (swaps + segment "
           "reversals)",
           {{"iters", "64", "move attempts per round"},
            {"freeze-depth", "2", "freeze depth of the starting ordering "
                                "(>= 1)"},
            {"rev-p", "0.25", "probability a move is a segment reversal "
                              "(0 <= rev-p <= 1)"}},
           [](std::size_t n, std::uint64_t seed, const SpecParams& params) {
             return std::make_unique<LocalSearchPathAdversary>(
                 n, seed ^ 0xf00dull, localSearchConfig(params));
           },
           [](const SpecParams& params, std::size_t) {
             const LocalSearchConfig config = localSearchConfig(params);
             if (config.freezeDepth < 1) {
               throw std::invalid_argument(
                   "adversary 'local-search': freeze-depth must be >= 1");
             }
             if (!(config.reversalProbability >= 0.0 &&
                   config.reversalProbability <= 1.0)) {
               throw std::invalid_argument(
                   "adversary 'local-search': rev-p must satisfy 0 <= "
                   "rev-p <= 1 (got rev-p=" +
                   params.getString("rev-p", "") + ")");
             }
           }});
  reg.add({"lookahead",
           "depth-limited search over a structured candidate pool",
           {{"depth", "3", "search depth in rounds (1 = plain greedy)"},
            {"rand", "1", "random candidates per search node"},
            {"damage-roots", "2", "damage-greedy roots per search node"}},
           [](std::size_t n, std::uint64_t seed, const SpecParams& params) {
             return std::make_unique<LookaheadDelayAdversary>(
                 n, seed ^ 0x10caull, lookaheadConfig(params));
           },
           [](const SpecParams& params, std::size_t) {
             if (lookaheadConfig(params).depth < 1) {
               throw std::invalid_argument(
                   "adversary 'lookahead': depth must be >= 1");
             }
           }});

  // Offline searches packaged as replayable adversaries ---------------------
  reg.add({"beam",
           "offline beam witness search, replayed as a tree sequence "
           "(strongest known heuristic; costs real search time)",
           {{"width", "128", "beam width"},
            {"rand-moves", "4", "random moves per expanded state"},
            {"noise", "8.0", "damage-tree weight noise amplitude "
                             "(finite, >= 0; 0 = no noise)"},
            {"diversity", "25", "percent of beam slots kept non-elite "
                                "(0 <= diversity <= 100)"},
            {"max-rounds", "0", "cap on achieved rounds; 0 = the trivial "
                                "n^2 bound"}},
           [](std::size_t n, std::uint64_t seed, const SpecParams& params) {
             return std::make_unique<BeamWitnessAdversary>(
                 n, seed ^ 0xbea3ull, beamConfig(params),
                 formatSpec("beam", params));
           },
           [](const SpecParams& params, std::size_t) {
             const BeamConfig config = beamConfig(params);
             try {
               validateBeamConfig(config);
             } catch (const std::invalid_argument& e) {
               throw std::invalid_argument(std::string("adversary 'beam': ") +
                                           e.what());
             }
           }});
  reg.add({"exact",
           "optimal play from the exhaustive game solver (2 <= n <= " +
               std::to_string(ExactSolver::kMaxPracticalN) + ")",
           {},
           [](std::size_t n, std::uint64_t, const SpecParams&) {
             return std::make_unique<ExactReplayAdversary>(n);
           },
           [](const SpecParams&, std::size_t n) {
             if (n < 2 || n > ExactSolver::kMaxPracticalN) {
               throw std::invalid_argument(
                   "adversary 'exact': optimal play is practical only for "
                   "2 <= n <= " +
                   std::to_string(ExactSolver::kMaxPracticalN) +
                   " (ExactSolver::kMaxPracticalN; got n=" +
                   std::to_string(n) + ")");
             }
           }});
}

template <>
AdversaryRegistry::SpecRegistry()
    : SpecRegistry("adversary", "adversary",
                   "run 'dynbcast list' for all registered adversaries") {}

}  // namespace dynbcast
