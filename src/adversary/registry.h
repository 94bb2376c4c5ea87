// AdversaryRegistry: the string-addressable construction surface for every
// adversary in the library.
//
// The paper's t*(T_n) is a max over *all* adversaries; growing that max
// means composing ever more adversary variants into sweeps. The registry
// makes adversaries data instead of code: a stable name plus a typed
// key=value parameter bag ("freeze-path:depth=3", "beam:width=8")
// constructs a fresh instance for any (n, seed), so portfolios, scenario
// specs, and the dynbcast CLI can all be driven by plain strings.
//
// The grammar and the registry are src/support/spec.h's. Unknown names,
// unknown keys and out-of-range values are hard errors, checked by
// validate(spec, n) before any adversary exists — a typo in an
// experiment script must fail loudly, not silently run the wrong
// adversary. Every adversary's name() returns a string in this grammar,
// so names round-trip through parse/print.
// name() carries the identity-defining parameters (freeze-path:depth=2,
// k-leaf:k=3, the full beam spec); greedy-delay and local-search keep
// their bare names even when tuning knobs are customized — portfolio
// member display names preserve the full spec in that case.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/adversary/adversary.h"
#include "src/support/spec.h"

namespace dynbcast {

/// A parsed adversary spec string: base name + parameter bag.
struct AdversarySpec : ParsedSpec {
  /// Parses "name:key=value,key=value". Throws std::invalid_argument on
  /// malformed input (empty name, missing '=', duplicate key, bad
  /// characters). Surrounding whitespace of tokens is ignored.
  [[nodiscard]] static AdversarySpec parse(const std::string& text) {
    return {parseSpec(text, "adversary")};
  }
};

struct AdversaryInfo {
  std::string name;
  std::string description;
  std::vector<SpecParamDoc> params;  ///< the only accepted keys
  /// Builds a fresh adversary for an (n, seed) instance from validated
  /// parameters. The factory owns any seed salting (the registry passes
  /// the instance seed through untouched).
  std::function<std::unique_ptr<Adversary>(
      std::size_t n, std::uint64_t seed, const SpecParams& params)>
      factory;
  /// Value check run by validate(); null when there is nothing to check.
  SpecValueCheck validateParams;
};

/// Name → factory registry over every adversary (see SpecRegistry).
using AdversaryRegistry = SpecRegistry<AdversaryInfo>;
template <>
AdversaryRegistry::SpecRegistry();

/// Registers every built-in adversary; instance() applies it once.
void registerBuiltins(AdversaryRegistry& registry);

}  // namespace dynbcast
