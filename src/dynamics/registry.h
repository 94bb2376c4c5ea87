// DynamicsRegistry: the string-addressable model zoo of dynamic-graph
// generators — the dynamics-axis twin of the AdversaryRegistry.
//
// "Add a network model" should be a spec string, not a code change: a
// stable name plus a typed key=value bag ("edge-markovian:p=0.2,q=0.1",
// "t-interval:T=8") names a dynamic-graph model, and the registry builds
// a fresh DynamicsModel for any (n, seed). ScenarioSpec::dynamics, the
// dynbcast CLI's --dynamics flag, and examples/quickstart all resolve
// through here: both axes are src/support/spec.h's SpecRegistry, with
// one parse/print round-trip, declared parameter docs, edit-distance
// typo suggestions and validate(spec, n).
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
#include <memory>
#include <string>
#include <vector>

#include "src/dynamics/dynamics.h"
#include "src/support/spec.h"

namespace dynbcast {

/// A parsed dynamics spec string: base name + parameter bag.
struct DynamicsSpec : ParsedSpec {
  /// Parses "name:key=value,key=value"; throws std::invalid_argument on
  /// malformed input (same grammar and rules as AdversarySpec::parse).
  [[nodiscard]] static DynamicsSpec parse(const std::string& text) {
    return {parseSpec(text, "dynamics")};
  }
};

/// How a registered dynamics entry produces its graphs (see file
/// comment).
enum class DynamicsMode { kAdversaryTrees, kGraphModel };

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
  std::vector<SpecParamDoc> params;  ///< the only accepted keys
  /// Value check run by validate(); null when there is nothing to check.
  /// Model parameters do not depend on n, so these checks ignore it.
  SpecValueCheck validateParams;
  /// Graph-model constructor for an (n, seed) instance from validated
  /// parameters; null unless mode == kGraphModel. All model randomness
  /// must derive from `seed` (reset() rewinds to it).
  std::function<std::unique_ptr<DynamicsModel>(
      std::size_t n, std::uint64_t seed, const SpecParams& params)>
      factory;
  /// Default adversary spec list (kAdversaryTrees) when
  /// ScenarioSpec::adversaries is empty; null for kGraphModel.
  std::function<std::vector<std::string>(const SpecParams&)>
      defaultAdversaries;
  /// Adversary base names a kAdversaryTrees entry admits; empty = all.
  std::vector<std::string> admissibleAdversaries;
};

/// Name → model registry over the zoo (see SpecRegistry). Beyond the
/// shared rules, add() requires the mode and the factory to agree, and
/// make() refuses adversary-driven entries (they have no standalone
/// model).
using DynamicsRegistry = SpecRegistry<DynamicsInfo>;
template <>
DynamicsRegistry::SpecRegistry();
template <>
void DynamicsRegistry::checkEntry(const DynamicsInfo& entry) const;
template <>
void DynamicsRegistry::checkMakeable(const DynamicsInfo& entry) const;

/// Registers every built-in model; instance() applies it once.
void registerBuiltins(DynamicsRegistry& registry);

}  // namespace dynbcast
