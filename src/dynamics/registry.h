// DynamicsRegistry: the string-addressable model zoo of dynamic-graph
// generators — the dynamics-axis twin of the AdversaryRegistry.
//
// "Add a network model" should be a spec string, not a code change: a
// stable name plus a typed key=value bag ("edge-markovian:p=0.2,q=0.1",
// "t-interval:T=8") names a dynamic-graph model, and the registry builds
// a fresh DynamicsModel for any (n, seed). ScenarioSpec::dynamics, the
// dynbcast CLI's --dynamics flag, and examples/quickstart all resolve
// through here, with the same parse/print round-trip, declared parameter
// docs, and edit-distance typo suggestions the adversary registry has.
//
// Two modes of registered entry:
//
//   * kAdversaryTrees — the per-round graph is the ADVERSARY's move
//     (rooted-tree, restricted). These entries have no graph factory;
//     they carry the default/admissible adversary lists instead, and
//     scenarios route them through the portfolio sweep machinery.
//   * kGraphModel — the model itself emits every round's graph from its
//     seed (nonsplit-random, nonsplit-skewed, edge-markovian,
//     t-interval). Scenarios run these through runDynamicsBroadcast with
//     position-derived seeds; the adversary list must be empty.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dynamics/dynamics.h"
#include "src/support/spec.h"

namespace dynbcast {

/// Typed key=value bag of one dynamics spec (shared grammar,
/// src/support/spec.h).
using DynamicsParams = SpecParams;

/// A parsed dynamics spec string: base name + parameter bag.
struct DynamicsSpec {
  std::string name;
  DynamicsParams params;

  /// Parses "name:key=value,key=value"; throws std::invalid_argument on
  /// malformed input (same grammar and rules as AdversarySpec::parse).
  [[nodiscard]] static DynamicsSpec parse(const std::string& text);

  /// Canonical printing (sorted keys); a parse/print fixed point.
  [[nodiscard]] std::string toString() const;
};

/// One declared parameter of a registered model (for validation, error
/// suggestions, and `dynbcast list`).
struct DynamicsParamDoc {
  std::string key;
  std::string defaultValue;
  std::string description;
};

/// How a registered dynamics entry produces its graphs (see file
/// comment).
enum class DynamicsMode { kAdversaryTrees, kGraphModel };

/// Factory: builds a fresh model for an (n, seed) instance. All model
/// randomness must derive from `seed` (reset() rewinds to it); parameter
/// range errors throw std::invalid_argument.
using DynamicsFactory = std::function<std::unique_ptr<DynamicsModel>(
    std::size_t n, std::uint64_t seed, const DynamicsParams& params)>;

struct DynamicsInfo {
  std::string name;
  std::string description;
  /// The literature this model reproduces ("Kuhn–Lynch–Oshman 2010", …);
  /// printed by `dynbcast list` as the model ↔ paper map.
  std::string literature;
  DynamicsMode mode = DynamicsMode::kGraphModel;
  /// Structural property every emitted graph satisfies (kGraphModel) or
  /// that the admissible adversaries' moves satisfy (kAdversaryTrees).
  DynamicsClass graphClass = DynamicsClass::kNone;
  /// True when runs draw fresh randomness from the instance seed (and so
  /// need the engine's position-derived seeding to stay deterministic).
  bool stochastic = false;
  /// True when the entry's models supportSparseRounds(): the sparse
  /// backend (ScenarioSpec backend=sparse/auto) may drive them through
  /// nextSparseRound() without materializing any dense matrix. Keep in
  /// sync with the factory's models — validateScenario trusts this flag
  /// at composition time.
  bool sparseCapable = false;
  std::vector<DynamicsParamDoc> params;  ///< the only accepted keys
  /// Eager parameter-value check (ranges, enumerations) run by
  /// validate(); may be null. Factories re-check, but this fires at
  /// composition time instead of inside a worker thread.
  std::function<void(const DynamicsParams&)> validateParams;
  /// Graph-model constructor; null unless mode == kGraphModel.
  DynamicsFactory factory;
  /// Default adversary spec list (kAdversaryTrees) when
  /// ScenarioSpec::adversaries is empty; null for kGraphModel.
  std::function<std::vector<std::string>(const DynamicsParams&)>
      defaultAdversaries;
  /// Adversary base names a kAdversaryTrees entry admits; empty = all.
  std::vector<std::string> admissibleAdversaries;
};

/// Name → model registry. The process-wide instance() comes with every
/// built-in model pre-registered; extensions may add() their own before
/// fanning work out (read-only thereafter — make() from worker threads is
/// safe as long as no add() races it).
class DynamicsRegistry {
 public:
  DynamicsRegistry() = default;

  /// The process-wide registry, with all built-ins registered.
  [[nodiscard]] static DynamicsRegistry& instance();

  /// Registers a new model. Throws std::invalid_argument if the name is
  /// taken, not in the grammar's charset, or the mode/factory disagree.
  void add(DynamicsInfo info);

  [[nodiscard]] bool contains(const std::string& name) const {
    return entries_.count(name) != 0;
  }

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Metadata lookup. Throws std::invalid_argument with a nearest-match
  /// suggestion when the name is unknown.
  [[nodiscard]] const DynamicsInfo& info(const std::string& name) const;

  /// Checks the spec resolves: known name, only declared keys, and
  /// in-range values (via the entry's validateParams). Throws
  /// std::invalid_argument (with suggestions) otherwise. Cheap — callers
  /// composing sweeps validate eagerly so a typo fails at composition
  /// time, not inside a worker thread.
  void validate(const DynamicsSpec& spec) const;

  /// Validates and constructs a graph model. Throws std::invalid_argument
  /// for adversary-driven entries (they have no standalone model) and on
  /// parameter range errors.
  [[nodiscard]] std::unique_ptr<DynamicsModel> make(const DynamicsSpec& spec,
                                                    std::size_t n,
                                                    std::uint64_t seed) const;

  /// Convenience: parse + make.
  [[nodiscard]] std::unique_ptr<DynamicsModel> make(const std::string& spec,
                                                    std::size_t n,
                                                    std::uint64_t seed) const;

 private:
  std::map<std::string, DynamicsInfo> entries_;
};

}  // namespace dynbcast
