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

/// "exact": optimal play extracted from the exhaustive solver (n ≤ 8).
class ExactReplayAdversary final : public ReplayAdversary {
 public:
  explicit ExactReplayAdversary(std::size_t n) : ReplayAdversary(n, "exact") {}

 protected:
  std::vector<RootedTree> computeWitness() override {
    return ExactSolver(n_).optimalPlay();
  }
};

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
           [](std::size_t n, std::uint64_t, const AdversaryParams&) {
             return std::make_unique<StaticPathAdversary>(n);
           }});
  reg.add({"alternating-path",
           "ping-pong between a path and its reversal; completes gossip "
           "in Theta(n)",
           {},
           [](std::size_t n, std::uint64_t, const AdversaryParams&) {
             return std::make_unique<AlternatingPathAdversary>(n);
           }});
  reg.add({"random-tree",
           "a fresh uniformly random rooted tree every round (§5 baseline)",
           {},
           [](std::size_t n, std::uint64_t seed, const AdversaryParams&) {
             return std::make_unique<UniformRandomAdversary>(n, seed);
           }});
  reg.add({"random-path",
           "a path over a fresh random permutation every round",
           {},
           [](std::size_t n, std::uint64_t seed, const AdversaryParams&) {
             // Salt matches the historical standardPortfolio derivation so
             // registry-built sweeps reproduce the committed goldens.
             return std::make_unique<RandomPathAdversary>(n,
                                                          seed ^ 0x5eedull);
           }});
  reg.add({"heard-asc-path",
           "path ordered by |Heard| ascending",
           {},
           [](std::size_t n, std::uint64_t, const AdversaryParams&) {
             return std::make_unique<HeardOrderPathAdversary>(n, true);
           }});
  reg.add({"heard-desc-path",
           "path ordered by |Heard| descending",
           {},
           [](std::size_t n, std::uint64_t, const AdversaryParams&) {
             return std::make_unique<HeardOrderPathAdversary>(n, false);
           }});

  // Restricted classes of [14] ---------------------------------------------
  reg.add({"k-leaf",
           "fresh random tree with exactly k leaves every round "
           "(restricted class of [14], O(kn) broadcast)",
           {{"k", "2", "exact number of leaves (1 <= k <= n-1)"}},
           [](std::size_t n, std::uint64_t seed,
              const AdversaryParams& params) {
             const std::size_t k = params.getUInt("k", 2);
             if (k < 1 || k >= n) {
               throw std::invalid_argument(
                   "adversary 'k-leaf': k must satisfy 1 <= k <= n-1 (got "
                   "k=" + std::to_string(k) +
                   ", n=" + std::to_string(n) + ")");
             }
             return std::make_unique<KLeafAdversary>(n, k, seed);
           }});
  reg.add({"k-inner",
           "fresh random tree with exactly k inner nodes every round "
           "(restricted class of [14], O(kn) broadcast)",
           {{"k", "2", "exact number of inner nodes (1 <= k <= n-1)"}},
           [](std::size_t n, std::uint64_t seed,
              const AdversaryParams& params) {
             const std::size_t k = params.getUInt("k", 2);
             if (k < 1 || k >= n) {
               throw std::invalid_argument(
                   "adversary 'k-inner': k must satisfy 1 <= k <= n-1 "
                   "(got k=" + std::to_string(k) +
                   ", n=" + std::to_string(n) + ")");
             }
             return std::make_unique<KInnerAdversary>(n, k,
                                                      seed ^ 0xabcdull);
           }});
  reg.add({"freeze-broom",
           "delaying member of BOTH restricted classes: broom with a "
           "fixed-length handle kept in stable freeze order",
           {{"handle", "2", "handle length (1 <= handle <= n)"}},
           [](std::size_t n, std::uint64_t,
              const AdversaryParams& params) {
             const std::size_t handle = params.getUInt("handle", 2);
             if (handle < 1 || handle > n) {
               throw std::invalid_argument(
                   "adversary 'freeze-broom': handle must satisfy 1 <= "
                   "handle <= n (got handle=" + std::to_string(handle) +
                   ", n=" + std::to_string(n) + ")");
             }
             return std::make_unique<FreezeBroomAdversary>(n, handle);
           }});

  // Adaptive delayers -------------------------------------------------------
  reg.add({"freeze-path",
           "stable-partition path freezing the top-depth coverage leaders",
           {{"depth", "2", "number of leaders frozen (>= 1)"}},
           [](std::size_t n, std::uint64_t,
              const AdversaryParams& params) {
             const std::size_t depth = params.getUInt("depth", 2);
             if (depth < 1) {
               throw std::invalid_argument(
                   "adversary 'freeze-path': depth must be >= 1");
             }
             return std::make_unique<FreezePathAdversary>(n, depth);
           }});
  reg.add({"greedy-delay",
           "portfolio-greedy delayer: plays the least damaging candidate "
           "tree one round ahead",
           {{"freeze-max", "4", "stable freezes with depth 1..freeze-max"},
            {"rand-paths", "3", "random path candidates per round"},
            {"rand-trees", "2", "uniform random tree candidates per round"},
            {"damage-roots", "3", "damage-greedy tree roots per round"}},
           [](std::size_t n, std::uint64_t seed,
              const AdversaryParams& params) {
             GreedyDelayConfig config;
             config.freezeDepthMax =
                 params.getUInt("freeze-max", config.freezeDepthMax);
             config.randomPaths =
                 params.getUInt("rand-paths", config.randomPaths);
             config.randomTrees =
                 params.getUInt("rand-trees", config.randomTrees);
             config.damageTreeRoots =
                 params.getUInt("damage-roots", config.damageTreeRoots);
             return std::make_unique<GreedyDelayAdversary>(
                 n, seed ^ 0x9eedull, config);
           }});
  reg.add({"local-search",
           "per-round hill climbing over path orderings (swaps + segment "
           "reversals)",
           {{"iters", "64", "move attempts per round"},
            {"freeze-depth", "2", "freeze depth of the starting ordering "
                                "(>= 1)"},
            {"rev-p", "0.25", "probability a move is a segment reversal "
                              "(0 <= rev-p <= 1)"}},
           [](std::size_t n, std::uint64_t seed,
              const AdversaryParams& params) {
             LocalSearchConfig config;
             config.iterations = params.getUInt("iters", config.iterations);
             config.freezeDepth =
                 params.getUInt("freeze-depth", config.freezeDepth);
             if (config.freezeDepth < 1) {
               throw std::invalid_argument(
                   "adversary 'local-search': freeze-depth must be >= 1");
             }
             config.reversalProbability =
                 params.getDouble("rev-p", config.reversalProbability);
             if (!(config.reversalProbability >= 0.0 &&
                   config.reversalProbability <= 1.0)) {
               throw std::invalid_argument(
                   "adversary 'local-search': rev-p must satisfy 0 <= "
                   "rev-p <= 1 (got rev-p=" +
                   params.getString("rev-p", "") + ")");
             }
             return std::make_unique<LocalSearchPathAdversary>(
                 n, seed ^ 0xf00dull, config);
           }});
  reg.add({"lookahead",
           "depth-limited search over a structured candidate pool",
           {{"depth", "3", "search depth in rounds (1 = plain greedy)"},
            {"rand", "1", "random candidates per search node"},
            {"damage-roots", "2", "damage-greedy roots per search node"}},
           [](std::size_t n, std::uint64_t seed,
              const AdversaryParams& params) {
             LookaheadConfig config;
             config.depth = params.getUInt("depth", config.depth);
             if (config.depth < 1) {
               throw std::invalid_argument(
                   "adversary 'lookahead': depth must be >= 1");
             }
             config.randomMoves = params.getUInt("rand", config.randomMoves);
             config.damageRoots =
                 params.getUInt("damage-roots", config.damageRoots);
             return std::make_unique<LookaheadDelayAdversary>(
                 n, seed ^ 0x10caull, config);
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
           [](std::size_t n, std::uint64_t seed,
              const AdversaryParams& params) {
             BeamConfig config;
             config.beamWidth = params.getUInt("width", config.beamWidth);
             config.randomMovesPerState =
                 params.getUInt("rand-moves", config.randomMovesPerState);
             config.noiseAmplitude =
                 params.getDouble("noise", config.noiseAmplitude);
             config.diversityPercent =
                 params.getUInt("diversity", config.diversityPercent);
             config.maxRounds =
                 params.getUInt("max-rounds", config.maxRounds);
             try {
               validateBeamConfig(config);
             } catch (const std::invalid_argument& e) {
               throw std::invalid_argument(std::string("adversary 'beam': ") +
                                           e.what());
             }
             return std::make_unique<BeamWitnessAdversary>(
                 n, seed ^ 0xbea3ull, config,
                 AdversarySpec{"beam", params}.toString());
           }});
  reg.add({"exact",
           "optimal play from the exhaustive game solver (n <= 8; "
           "practical for n <= 5)",
           {},
           [](std::size_t n, std::uint64_t, const AdversaryParams&) {
             if (n < 2 || n > 8) {
               throw std::invalid_argument(
                   "adversary 'exact': the exhaustive solver supports "
                   "2 <= n <= 8 (got n=" + std::to_string(n) + ")");
             }
             return std::make_unique<ExactReplayAdversary>(n);
           }});
}

}  // namespace

AdversarySpec AdversarySpec::parse(const std::string& text) {
  ParsedSpec parsed = parseSpec(text, "adversary");
  return AdversarySpec{std::move(parsed.name), std::move(parsed.params)};
}

std::string AdversarySpec::toString() const {
  return formatSpec(name, params);
}

AdversaryRegistry& AdversaryRegistry::instance() {
  static AdversaryRegistry* registry = [] {
    auto* r = new AdversaryRegistry();
    registerBuiltins(*r);
    return r;
  }();
  return *registry;
}

void AdversaryRegistry::add(AdversaryInfo info) {
  if (!isValidSpecToken(info.name)) {
    throw std::invalid_argument("adversary registration '" + info.name +
                                "': name must be non-empty [A-Za-z0-9._-]");
  }
  if (!info.factory) {
    throw std::invalid_argument("adversary registration '" + info.name +
                                "': null factory");
  }
  const std::string name = info.name;
  if (!entries_.emplace(name, std::move(info)).second) {
    throw std::invalid_argument("adversary registration '" + name +
                                "': name already registered");
  }
}

std::vector<std::string> AdversaryRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, info] : entries_) out.push_back(name);
  return out;
}

const AdversaryInfo& AdversaryRegistry::info(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string message = "unknown adversary '" + name + "'";
    const std::string suggestion = closestMatch(name, names());
    if (!suggestion.empty()) {
      message += "; did you mean '" + suggestion + "'?";
    }
    message += " (run 'dynbcast list' for all registered adversaries)";
    throw std::invalid_argument(message);
  }
  return it->second;
}

void AdversaryRegistry::validate(const AdversarySpec& spec) const {
  const AdversaryInfo& entry = info(spec.name);
  std::vector<std::string> known;
  known.reserve(entry.params.size());
  for (const AdversaryParamDoc& doc : entry.params) known.push_back(doc.key);
  for (const auto& [key, value] : spec.params.values()) {
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string message = "adversary '" + spec.name +
                          "': unknown parameter '" + key + "'";
    const std::string suggestion = closestMatch(key, known);
    if (!suggestion.empty()) {
      message += "; did you mean '" + suggestion + "'?";
    }
    if (known.empty()) {
      message += " ('" + spec.name + "' takes no parameters)";
    } else {
      std::string keys;
      for (const std::string& k : known) {
        if (!keys.empty()) keys += ", ";
        keys += k;
      }
      message += " (known parameters: " + keys + ")";
    }
    throw std::invalid_argument(message);
  }
}

std::unique_ptr<Adversary> AdversaryRegistry::make(const AdversarySpec& spec,
                                                   std::size_t n,
                                                   std::uint64_t seed) const {
  validate(spec);
  return info(spec.name).factory(n, seed, spec.params);
}

std::unique_ptr<Adversary> AdversaryRegistry::make(const std::string& spec,
                                                   std::size_t n,
                                                   std::uint64_t seed) const {
  return make(AdversarySpec::parse(spec), n, seed);
}

}  // namespace dynbcast
